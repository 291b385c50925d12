package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"selfishmac/internal/service"
)

// jobTemplate is one kind of job the generator submits; params takes the
// job's seed.
type jobTemplate struct {
	name   string
	kind   string
	params string
}

// daemonTemplates each run in a few milliseconds, so job latency stays
// one distribution rather than a mix of fast and slow modes. Every job
// runs on one goroutine: the daemon's two workers are the only ones
// doing work.
var daemonTemplates = []jobTemplate{
	{"replicate", "replicate", `{"base_seed":%d,"workers":1}`},
	{"replicate-n100", "replicate", `{"nodes":100,"min_reps":4,"max_reps":4,"batch_size":4,"base_seed":%d,"workers":1}`},
	{"singlehop", "singlehop", `{"nodes":50,"duration_us":200e6,"base_seed":%d,"workers":1}`},
	{"detect", "detect", `{"duration_us":600e6,"seed":%d}`},
	{"experiment", "experiment", `{"id":"T2","profile":"quick","seed":%d,"workers":1}`},
}

// ratePhase is one stretch of the open loop at a fixed arrival rate.
type ratePhase struct {
	name string
	rate float64 // jobs per second
	dur  time.Duration
}

// arrival is one scheduled job.
type arrival struct {
	at       time.Duration // offset from the start of the timed phase
	template int
	seed     uint64 // 1..16, so every (template, seed) pair recurs
	phase    int
}

// poissonSchedule draws the open loop's arrivals: exponential gaps at
// each phase's rate, a uniform template and a seed in 1..16 per job.
func poissonSchedule(seed uint64, phases []ratePhase, templates int) []arrival {
	r := rand.New(rand.NewPCG(seed, 0xda3))
	var out []arrival
	var base time.Duration
	for p, ph := range phases {
		for t := r.ExpFloat64() / ph.rate; t < ph.dur.Seconds(); t += r.ExpFloat64() / ph.rate {
			out = append(out, arrival{
				at:       base + time.Duration(t*float64(time.Second)),
				template: r.IntN(templates),
				seed:     1 + r.Uint64N(16),
				phase:    p,
			})
		}
		base += ph.dur
	}
	return out
}

// daemonWorkload serves the job daemon over loopback HTTP with its
// default configuration and drives it with an open loop: jobs are sent
// on a seeded Poisson schedule whether or not earlier ones finished.
type daemonWorkload struct {
	phases   []ratePhase
	schedule []arrival
	setups   int
}

// pollEvery spaces a job's status polls; jobs run for a few ms.
const pollEvery = 2 * time.Millisecond

func newDaemon(seed uint64, phases []ratePhase) daemonWorkload {
	return daemonWorkload{
		phases:   phases,
		schedule: poissonSchedule(seed, phases, len(daemonTemplates)),
		setups:   5,
	}
}

// jobRecord is everything the generator saw of one job.
type jobRecord struct {
	arrival
	due, sent, accepted time.Time // scheduled, submit started, submit answered
	id                  string
	status              int // submit's HTTP status
	view                service.JobView
	polls               [][2]time.Time
	fetch               [2]time.Time
	state               string
	result              json.RawMessage
	err                 error
}

func (w daemonWorkload) run(tr *tracer) (*result, error) {
	res := newResult()
	seen := make(map[[2]uint64]string) // (template, seed) → result
	check := func(rec *jobRecord) {
		res.attempted++
		switch {
		case rec.err != nil:
			res.fail("job %s (%s): %v", rec.id, daemonTemplates[rec.template].name, rec.err)
		case rec.status != http.StatusAccepted:
			res.fail("job %s submit: HTTP %d", daemonTemplates[rec.template].name, rec.status)
		case rec.state != string(service.StateDone):
			res.fail("job %s (%s): state %s", rec.id, daemonTemplates[rec.template].name, rec.state)
		default:
			key := [2]uint64{uint64(rec.template), rec.seed}
			if prev, ok := seen[key]; !ok {
				seen[key] = string(rec.result)
			} else if prev != string(rec.result) {
				res.fail("job %s (%s, seed %d): result differs from an earlier job with the same inputs",
					rec.id, daemonTemplates[rec.template].name, rec.seed)
			}
		}
	}

	var boots []*daemon
	defer func() {
		for _, d := range boots {
			d.close()
		}
	}()
	err := res.timeSetup(w.setups, func() error {
		d, err := bootDaemon()
		if err != nil {
			return err
		}
		boots = append(boots, d)
		for t := range daemonTemplates {
			rec := &jobRecord{arrival: arrival{template: t, seed: uint64(t) + 1}}
			rec.due = time.Now()
			d.do(rec)
			check(rec)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("daemon set-up: %w", err)
	}
	d := boots[len(boots)-1]

	// Each job gets its own goroutine at its due time, so a slow answer
	// never delays later sends; these goroutines only wait on HTTP, over
	// at most two connections.
	recs := make([]jobRecord, len(w.schedule))
	res.before = readUsage()
	start := time.Now()
	var wg sync.WaitGroup
	for i, a := range w.schedule {
		rec := &recs[i]
		rec.arrival = a
		rec.due = start.Add(a.at)
		time.Sleep(time.Until(rec.due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.do(rec)
		}()
	}
	wg.Wait()
	res.after = readUsage()

	w.measure(res, recs, check, tr)
	res.digest = resultsDigest(seen)
	return res, nil
}

// resultsDigest hashes every distinct job's result in (template, seed)
// order.
func resultsDigest(seen map[[2]uint64]string) string {
	keys := make([][2]uint64, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i][0] < keys[j][0] || keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1]
	})
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%d/%d\x00%s\x00", k[0], k[1], seen[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// measure checks every job and derives latencies, counts and spans.
func (w daemonWorkload) measure(res *result, recs []jobRecord, check func(*jobRecord), tr *tracer) {
	byPhase := make([][]time.Duration, len(w.phases))
	byKind := make(map[string][]time.Duration)
	var lag, submit, queue []time.Duration
	var polls, rejected, reps, rounds, flags, repJobs, detectJobs int
	for i := range recs {
		rec := &recs[i]
		failedBefore := res.failed
		check(rec)
		polls += len(rec.polls)
		if rec.status == http.StatusTooManyRequests {
			rejected++
		}
		lag = append(lag, rec.sent.Sub(rec.due))
		if res.failed > failedBefore || rec.view.Started == nil || rec.view.Finished == nil {
			continue
		}
		latency := rec.view.Finished.Sub(rec.due.Round(0))
		res.ops = append(res.ops, latency)
		byPhase[rec.phase] = append(byPhase[rec.phase], latency)
		submit = append(submit, rec.accepted.Sub(rec.sent))
		queue = append(queue, rec.view.Started.Sub(rec.view.Created))
		tmpl := daemonTemplates[rec.template]
		byKind[tmpl.kind] = append(byKind[tmpl.kind], rec.view.Finished.Sub(*rec.view.Started))

		var out struct {
			Reps, Rounds, Flags int
		}
		if err := json.Unmarshal(rec.result, &out); err != nil {
			res.fail("job %s: decode result: %v", rec.id, err)
			continue
		}
		switch tmpl.kind {
		case "replicate", "singlehop":
			repJobs++
			reps += out.Reps
			rounds += out.Rounds
		case "detect":
			detectJobs++
			flags += out.Flags
		}
		if tr != nil {
			w.spans(tr, rec)
		}
	}
	res.finish()

	for p, ph := range w.phases {
		ms := millis(byPhase[p])
		res.set("job_ms_p50_"+ph.name, median(ms), "ms")
		if q, ok := tailPercentile(len(ms)); ok && q > 50 {
			res.set(fmt.Sprintf("job_ms_p%g_%s", q, ph.name), percentile(ms, q), "ms")
		}
	}
	for kind, ds := range byKind {
		res.set("service.run_ms_p50."+kind, median(millis(ds)), "ms")
	}
	setP := func(name string, ds []time.Duration) {
		ms := millis(ds)
		res.set(name+"_ms_p50", median(ms), "ms")
		res.set(name+"_ms_p99", percentile(ms, 99), "ms")
	}
	setP("service.submit", submit)
	setP("service.queue_wait", queue)
	setP("generator.lag", lag)
	n := float64(max(len(recs), 1))
	res.set("service.polls_per_job", float64(polls)/n, "count")
	res.set("service.rejected", float64(rejected), "count")
	res.set("replicate.reps_per_job", float64(reps)/float64(max(repJobs, 1)), "count")
	res.set("replicate.rounds_per_job", float64(rounds)/float64(max(repJobs, 1)), "count")
	res.set("stream.flags_per_job", float64(flags)/float64(max(detectJobs, 1)), "count")
	if tr != nil {
		shares := selfShares(tr.spans, "daemon.job")
		res.set("generator.lag_share", shares["generator.lag"], "ratio")
		res.set("service.submit_share", shares["http.submit"], "ratio")
		res.set("service.queue_wait_share", shares["service.queue_wait"], "ratio")
		res.set("service.run_share", shares["service.run"], "ratio")
	}
}

// spans records one job's trace: the job from its scheduled send time to
// its server-side finish, the generator's lag, the HTTP calls, and the
// queue wait and run the server's timestamps imply.
func (w daemonWorkload) spans(tr *tracer, rec *jobRecord) {
	root := tr.id()
	v := rec.view
	tr.record(root, root, 0, "daemon.job", rec.due, *v.Finished,
		map[string]any{"job": rec.id, "template": daemonTemplates[rec.template].name, "seed": rec.seed, "phase": w.phases[rec.phase].name})
	tr.record(root, 0, root, "generator.lag", rec.due, rec.sent, nil)
	tr.record(root, 0, root, "http.submit", rec.sent, rec.accepted, nil)
	tr.record(root, 0, root, "service.queue_wait", v.Created, *v.Started, nil)
	tr.record(root, 0, root, "service.run", *v.Started, *v.Finished, nil)
	for _, p := range rec.polls {
		tr.record(root, 0, root, "http.poll", p[0], p[1], nil)
	}
	tr.record(root, 0, root, "http.result", rec.fetch[0], rec.fetch[1], nil)
}

// daemon is one in-process job service behind a loopback HTTP server.
type daemon struct {
	srv    *service.Server
	ts     *httptest.Server
	client *http.Client
}

func bootDaemon() (*daemon, error) {
	srv, err := service.New(service.Config{})
	if err != nil {
		return nil, err
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
		Timeout:   time.Minute,
	}
	return &daemon{srv: srv, ts: ts, client: client}, nil
}

func (d *daemon) close() {
	d.client.CloseIdleConnections()
	d.ts.Close()
	_ = d.srv.Shutdown(context.Background()) // always nil once the workers exit
}

// do submits rec's job and, once accepted, follows it to its result.
func (d *daemon) do(rec *jobRecord) {
	d.submit(rec)
	if rec.err == nil && rec.status == http.StatusAccepted {
		d.follow(rec)
	}
}

// submit sends rec's job and records the answer.
func (d *daemon) submit(rec *jobRecord) {
	tmpl := daemonTemplates[rec.template]
	body, err := json.Marshal(service.SubmitRequest{
		Kind:   tmpl.kind,
		Params: json.RawMessage(fmt.Sprintf(tmpl.params, rec.seed)),
	})
	if err != nil {
		rec.err = err
		return
	}
	rec.sent = time.Now()
	resp, err := d.client.Post(d.ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		rec.err = err
		return
	}
	var v service.JobView
	rec.status = resp.StatusCode
	err = decodeBody(resp, &v)
	rec.accepted = time.Now()
	if rec.status == http.StatusAccepted {
		rec.id, rec.err = v.ID, err
	}
}

// follow polls rec's job until it ends, then fetches its result.
func (d *daemon) follow(rec *jobRecord) {
	for {
		t0 := time.Now()
		resp, err := d.client.Get(d.ts.URL + "/api/v1/jobs/" + rec.id)
		if err == nil {
			err = decodeBody(resp, &rec.view)
		}
		rec.polls = append(rec.polls, [2]time.Time{t0, time.Now()})
		if err != nil {
			rec.err = fmt.Errorf("poll: %w", err)
			return
		}
		if rec.view.State.Terminal() {
			break
		}
		time.Sleep(pollEvery)
	}
	rec.fetch[0] = time.Now()
	resp, err := d.client.Get(d.ts.URL + "/api/v1/jobs/" + rec.id + "/result")
	var out struct {
		State  string          `json:"state"`
		Result json.RawMessage `json:"result"`
	}
	if err == nil {
		err = decodeBody(resp, &out)
	}
	rec.fetch[1] = time.Now()
	if err != nil {
		rec.err = fmt.Errorf("result: %w", err)
		return
	}
	rec.state, rec.result = out.State, out.Result
}

// decodeBody decodes a JSON response and closes its body.
func decodeBody(resp *http.Response, v any) error {
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 && resp.StatusCode != http.StatusTooManyRequests {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(buf))
	}
	return json.Unmarshal(buf, v)
}
