package service

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

func TestApplyDefaultsFillsZeroFields(t *testing.T) {
	var c Config
	c.ApplyDefaults()
	if c.QueueCap != 64 {
		t.Errorf("QueueCap = %d, want 64", c.QueueCap)
	}
	if c.Workers != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers = %d, want GOMAXPROCS = %d", c.Workers, runtime.GOMAXPROCS(0))
	}
	if c.DefaultJobTimeout <= 0 || c.MaxJobTimeout <= 0 || c.DrainTimeout <= 0 {
		t.Errorf("timeouts not defaulted: %+v", c)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("defaulted config does not validate: %v", err)
	}
}

func TestApplyDefaultsKeepsUserValues(t *testing.T) {
	c := Config{
		QueueCap:          3,
		Workers:           2,
		DefaultJobTimeout: time.Minute,
		MaxJobTimeout:     2 * time.Minute,
		DrainTimeout:      time.Second,
	}
	want := c
	c.ApplyDefaults()
	if c != want {
		t.Errorf("ApplyDefaults rewrote user values:\n got %+v\nwant %+v", c, want)
	}
}

func TestValidateSentinels(t *testing.T) {
	valid := Config{}
	valid.ApplyDefaults()

	cases := []struct {
		name   string
		mutate func(*Config)
		want   error
	}{
		{"zero queue", func(c *Config) { c.QueueCap = 0 }, ErrBadQueueCap},
		{"negative workers", func(c *Config) { c.Workers = -1 }, ErrBadWorkers},
		{"zero job timeout", func(c *Config) { c.DefaultJobTimeout = 0 }, ErrBadTimeout},
		{"zero max timeout", func(c *Config) { c.MaxJobTimeout = 0 }, ErrBadTimeout},
		{"zero drain timeout", func(c *Config) { c.DrainTimeout = 0 }, ErrBadTimeout},
		{
			"default above max",
			func(c *Config) { c.DefaultJobTimeout = 3 * time.Hour },
			ErrTimeoutInverted,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := valid
			tc.mutate(&c)
			err := c.Validate()
			if !errors.Is(err, tc.want) {
				t.Errorf("Validate() = %v, want errors.Is(err, %v)", err, tc.want)
			}
		})
	}
}

func TestValidateReportsEveryViolation(t *testing.T) {
	c := Config{QueueCap: -1, Workers: 0, DefaultJobTimeout: -time.Second}
	err := c.Validate()
	for _, want := range []error{ErrBadQueueCap, ErrBadWorkers, ErrBadTimeout} {
		if !errors.Is(err, want) {
			t.Errorf("joined error misses %v (got %v)", want, err)
		}
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	// ApplyDefaults repairs non-positive fields, so the only way to reach
	// Validate with a bad config is an inverted timeout pair.
	_, err := New(Config{DefaultJobTimeout: time.Hour, MaxJobTimeout: time.Minute})
	if !errors.Is(err, ErrTimeoutInverted) {
		t.Fatalf("New() error = %v, want ErrTimeoutInverted", err)
	}
}
