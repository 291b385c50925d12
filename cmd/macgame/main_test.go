package main

import (
	"strings"
	"testing"

	"selfishmac"
)

func TestParseMode(t *testing.T) {
	cases := []struct {
		in      string
		want    selfishmac.AccessMode
		wantErr bool
	}{
		{"basic", selfishmac.Basic, false},
		{"BASIC", selfishmac.Basic, false},
		{"rtscts", selfishmac.RTSCTS, false},
		{"rts/cts", selfishmac.RTSCTS, false},
		{"rts-cts", selfishmac.RTSCTS, false},
		{"dcf", 0, true},
		{"", 0, true},
	}
	for _, tc := range cases {
		got, err := parseMode(tc.in)
		if (err != nil) != tc.wantErr {
			t.Errorf("parseMode(%q) err = %v, wantErr %v", tc.in, err, tc.wantErr)
			continue
		}
		if !tc.wantErr && got != tc.want {
			t.Errorf("parseMode(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestParseStrategy(t *testing.T) {
	game, err := selfishmac.NewGame(selfishmac.DefaultConfig(3, selfishmac.Basic))
	if err != nil {
		t.Fatal(err)
	}
	good := []struct {
		spec string
		name string // substring expected in Strategy.Name()
	}{
		{"tft:100", "tft"},
		{"gtft:100:3:0.9", "gtft"},
		{"constant:8", "constant"},
		{"best", "best-response"},
	}
	for _, tc := range good {
		s, err := parseStrategy(game, tc.spec)
		if err != nil {
			t.Errorf("parseStrategy(%q): %v", tc.spec, err)
			continue
		}
		if !strings.Contains(s.Name(), tc.name) {
			t.Errorf("parseStrategy(%q) = %q, want %q inside", tc.spec, s.Name(), tc.name)
		}
	}
	bad := []string{
		"tft",            // missing W0
		"tft:x",          // non-numeric
		"gtft:100:3",     // missing beta
		"gtft:100:x:0.9", // non-numeric r0
		"gtft:100:3:y",   // non-numeric beta
		"constant",       // missing W
		"unknown:5",      // unknown kind
	}
	for _, spec := range bad {
		if _, err := parseStrategy(game, spec); err == nil {
			t.Errorf("parseStrategy(%q) accepted", spec)
		}
	}
}

func TestRunUnknownSubcommand(t *testing.T) {
	if err := run([]string{"frobnicate"}); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
	if err := run(nil); err == nil {
		t.Fatal("empty args accepted")
	}
}

func TestRunHelp(t *testing.T) {
	if err := run([]string{"help"}); err != nil {
		t.Fatalf("help failed: %v", err)
	}
}

func TestSubcommandFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"ne", "-mode", "nonsense"},
		{"sweep", "-mode", "nonsense"},
		{"sweep", "-points", "1"},
		{"sweep", "-points", "0"},
		{"simulate", "-cw", "1,x"},
		{"game", "-strategies", "bogus:1"},
		{"search", "-mode", "nonsense"},
		{"observe", "-mode", "nonsense"},
		{"packets", "-mode", "nonsense"},
		{"observe", "-cheat", "5", "-cheater", "99"},
		{"search", "-drop", "-0.2"},
		{"search", "-drop", "NaN"},
		{"search", "-drop", "1"},
		{"game", "-noise", "-0.1"},
		{"game", "-noise", "NaN"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

func TestBar(t *testing.T) {
	if bar(-1, 1) != "" {
		t.Error("negative value produced a bar")
	}
	if got := bar(0.5, 0.05); len(got) == 0 {
		t.Error("positive value produced empty bar")
	}
	if got := bar(1000, 0.01); len(got) > 60 {
		t.Errorf("bar not capped: %d chars", len(got))
	}
}
