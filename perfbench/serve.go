package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"qcsim"
	"qcsim/circuit"
)

// serve-mixed drives qcserve over HTTP. Two tenants share one server: a
// "ram" tenant whose budget admits the dense worst case (the engine then
// runs under that priced budget and may escalate), and a "disk" tenant
// too small for it, admitted on the spill route. Each round runs both
// circuits on both tenants in a seeded order; each round draws fresh
// circuit instances, so a run covers the circuit family and its figures
// do not hinge on whether one instance happens to fit the ram budget.
var serveArgs = []string{
	"-tenant", "ram:64MiB",
	"-tenant", "disk:320KiB",
	"-disk-budget", "64MiB",
	"-workers", "2",
}

const (
	serveQubits       = 16
	serveShots        = 1024
	serveResumeShots  = 64
	serveSetups       = 5 // server starts timed for setup_s; the last one serves
	serveMinRounds    = 2
	observerPeriod    = 200 * time.Millisecond
	serverStopTimeout = 60 * time.Second
)

var serveTenants = []string{"ram", "disk"}

// serveCircuit is one submitted circuit: its qc text and, for the count
// pass, the circuit parsed back from that text (what the server
// actually runs).
type serveCircuit struct {
	text string
	circ *circuit.Circuit
}

func buildServeCircuits(seed int64) ([]serveCircuit, error) {
	var out []serveCircuit
	for _, c := range []*circuit.Circuit{circuit.Supremacy(4, 4, 20, seed), circuit.QFT(serveQubits, seed)} {
		var b strings.Builder
		if err := circuit.Serialize(&b, c); err != nil {
			return nil, err
		}
		parsed, err := circuit.Parse(strings.NewReader(b.String()))
		if err != nil {
			return nil, err
		}
		out = append(out, serveCircuit{text: b.String(), circ: parsed})
	}
	return out, nil
}

// serverProc is a running qcserve child process.
type serverProc struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
	done   chan error
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches qcserve and returns once /healthz answers.
func startServer(e *env) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	p := &serverProc{base: "http://" + addr, done: make(chan error, 1)}
	p.cmd = exec.Command(e.qcserve, append([]string{"-addr", addr}, serveArgs...)...)
	p.cmd.Env = append(os.Environ(), "TMPDIR="+e.scratch)
	// If the benchmark dies, the server is told to drain rather than
	// left running.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	p.cmd.Stdout = &p.stderr
	p.cmd.Stderr = &p.stderr
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { p.done <- p.cmd.Wait() }()
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := client.Get(p.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return p, nil
			}
		}
		select {
		case err := <-p.done:
			p.done <- err
			return nil, fmt.Errorf("qcserve exited before healthy: %v\n%s", err, p.stderr.String())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("qcserve not healthy after 15s\n%s", p.stderr.String())
		}
	}
}

// stop drains the server with SIGTERM and waits for it to exit.
func (p *serverProc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return <-p.done
	}
	select {
	case err := <-p.done:
		return err
	case <-time.After(serverStopTimeout):
		p.cmd.Process.Kill()
		<-p.done
		return errors.New("qcserve did not drain in time; killed")
	}
}

func killedBySignal(err error) bool {
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		return false
	}
	ws, ok := ee.Sys().(syscall.WaitStatus)
	return ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM
}

// jobEvent mirrors the fields of qcserve's SSE job events the benchmark
// reads.
type jobEvent struct {
	Type  string `json:"type"`
	Code  string `json:"code"`
	Error string `json:"error"`
	Admit *struct {
		Code        string `json:"code"`
		PricedBytes int64  `json:"priced_bytes"`
	} `json:"admission"`
	Res *struct {
		Fidelity  float64 `json:"fidelity"`
		Footprint int64   `json:"footprint"`
	} `json:"result"`
}

// serveJob is what one closed-loop iteration measured.
type serveJob struct {
	circ      *serveCircuit
	tenant    string
	seed      int64
	admitCode string
	priced    int64
	run       time.Duration // submit to done
	sample    time.Duration // the serveShots request
	fidelity  float64       // the done event's Eq. 11 bound
	footprint int64
}

// httpClient issues the benchmark's requests over one connection.
type httpClient struct {
	c    *http.Client
	base string
}

func newHTTPClient(base string) *httpClient {
	return &httpClient{base: base, c: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}}
}

// call sends a request and decodes a JSON answer into out (nil to
// discard). A non-2xx answer is an error carrying its code.
func (h *httpClient) call(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, h.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := h.c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

type sessionInfo struct {
	SessionID string `json:"session_id"`
}

type sampleResp struct {
	Outcomes []string `json:"outcomes"`
}

// serveRun holds one run's shared state between the client loop and
// the observer.
type serveRun struct {
	e   *env
	rep *report
	cl  *httpClient

	mu      sync.Mutex
	current string // the session the observer inspects ("" = none)
}

func (s *serveRun) setCurrent(id string) {
	s.mu.Lock()
	s.current = id
	s.mu.Unlock()
}

// job runs create → submit → sample → suspend → sample (resume) →
// delete. Every request is one attempt; ok is false after the first
// failure, which is already counted.
func (s *serveRun) job(ctx context.Context, iter int, sc *serveCircuit, tenant string, seed int64, traced bool) (j serveJob, ok bool) {
	acct, tr := &s.rep.acct, &s.rep.tr
	tr.on = traced
	j = serveJob{circ: sc, tenant: tenant, seed: seed}
	root := tr.begin("iteration", 0, iter)
	defer tr.end(root)

	var info sessionInfo
	acct.attempt()
	sp := tr.begin("create", root, iter)
	err := s.cl.call(ctx, "POST", "/v1/sessions", map[string]any{"tenant": tenant, "qubits": serveQubits, "seed": seed}, &info)
	tr.end(sp)
	if err != nil {
		acct.fail("http", err.Error())
		return j, false
	}
	s.setCurrent(info.SessionID)
	path := "/v1/sessions/" + info.SessionID
	defer func() {
		s.setCurrent("")
		acct.attempt()
		if err := s.cl.call(ctx, "DELETE", path, nil, nil); err != nil {
			acct.fail("http", err.Error())
			ok = false
		}
	}()

	acct.attempt()
	if !s.submit(ctx, &j, path, iter, root) {
		return j, false
	}

	for _, step := range []struct {
		span  string
		shots int
	}{{"server.sample_s", serveShots}, {"server.suspend_s", 0}, {"server.resume_s", serveResumeShots}} {
		acct.attempt()
		t := time.Now()
		sp := tr.begin(step.span, root, iter)
		var err error
		var out sampleResp
		if step.shots == 0 {
			err = s.cl.call(ctx, "POST", path+"/suspend", struct{}{}, nil)
		} else {
			// The sample after a suspend resumes the session from its
			// checkpoint before drawing.
			err = s.cl.call(ctx, "POST", path+"/sample", map[string]int{"shots": step.shots}, &out)
		}
		tr.end(sp)
		if err != nil {
			acct.fail("http", err.Error())
			return j, false
		}
		if step.shots == 0 {
			continue
		}
		if len(out.Outcomes) != step.shots {
			acct.fail("mismatch", fmt.Sprintf("sample returned %d outcomes for %d shots", len(out.Outcomes), step.shots))
			return j, false
		}
		if step.shots == serveShots {
			j.sample = time.Since(t)
		}
	}
	return j, true
}

// submit posts the circuit and follows its event stream to the
// terminal event.
func (s *serveRun) submit(ctx context.Context, j *serveJob, path string, iter, root int) bool {
	acct, tr := &s.rep.acct, &s.rep.tr
	body, err := json.Marshal(map[string]string{"circuit": j.circ.text})
	if err != nil {
		acct.fail("http", err.Error())
		return false
	}
	req, err := http.NewRequestWithContext(ctx, "POST", s.cl.base+path+"/jobs", bytes.NewReader(body))
	if err != nil {
		acct.fail("http", err.Error())
		return false
	}
	t0 := time.Now()
	js := tr.begin("job", root, iter)
	defer tr.end(js)
	resp, err := s.cl.c.Do(req)
	if err != nil {
		acct.fail("http", err.Error())
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		data, _ := io.ReadAll(resp.Body)
		kind := "http"
		if strings.Contains(string(data), `"REJECT_`) {
			kind = "rejected"
		}
		acct.fail(kind, fmt.Sprintf("submit: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data))))
		return false
	}
	var tAdmit, tFirst time.Time
	rd := bufio.NewReader(resp.Body)
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			acct.fail("http", "job stream ended without a terminal event")
			return false
		}
		data, isData := strings.CutPrefix(strings.TrimRight(line, "\n"), "data: ")
		if !isData {
			continue
		}
		var ev jobEvent
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			acct.fail("http", "bad job event: "+err.Error())
			return false
		}
		now := time.Now()
		switch ev.Type {
		case "admitted":
			tAdmit = now
			if ev.Admit != nil {
				j.admitCode, j.priced = ev.Admit.Code, ev.Admit.PricedBytes
			}
			tr.add("server.admit_s", js, iter, t0, now)
		case "progress":
			if tFirst.IsZero() {
				tFirst = now
				tr.add("server.first_progress_s", js, iter, tAdmit, now)
			}
		case "done":
			j.run = now.Sub(t0)
			if tFirst.IsZero() {
				tFirst = tAdmit
			}
			tr.add("server.exec_s", js, iter, tFirst, now)
			if ev.Code != "OK" || ev.Res == nil {
				acct.fail("job", fmt.Sprintf("done event with code %q", ev.Code))
				return false
			}
			j.fidelity, j.footprint = ev.Res.Fidelity, ev.Res.Footprint
			return true
		case "error":
			kind := "job"
			if strings.HasPrefix(ev.Code, "REJECT_") {
				kind = "rejected"
			}
			acct.fail(kind, fmt.Sprintf("job error %s: %s", ev.Code, ev.Error))
			return false
		}
	}
}

// observation is one open-loop observer request.
type observation struct {
	due, start, end time.Time
	failed          bool
	detail          string
}

// observe issues GET /metrics and GET /v1/sessions/{id} alternately on a
// fixed schedule until ctx ends. Each request is timed from when it was
// due, so a stalled request also charges the ones queued behind it.
func (s *serveRun) observe(ctx context.Context, out *[]observation) {
	cl := newHTTPClient(s.cl.base)
	defer cl.c.CloseIdleConnections()
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * observerPeriod)
		select {
		case <-ctx.Done():
			return
		case <-time.After(time.Until(due)):
		}
		s.mu.Lock()
		id := s.current
		s.mu.Unlock()
		o := observation{due: due, start: time.Now()}
		var err error
		if k%2 == 0 || id == "" {
			err = cl.call(context.Background(), "GET", "/metrics", nil, nil)
		} else {
			err = cl.call(context.Background(), "GET", "/v1/sessions/"+id, nil, nil)
			s.mu.Lock()
			gone := s.current != id
			s.mu.Unlock()
			if err != nil && gone && strings.Contains(err.Error(), "ERR_NO_SESSION") {
				// The client deleted the session while the request was
				// in flight: the right answer, not a failure.
				err = nil
			}
		}
		o.end = time.Now()
		if err != nil {
			o.failed, o.detail = true, err.Error()
		}
		*out = append(*out, o)
	}
}

func runServeMixed(e *env, rep *report) error {
	if e.qcserve == "" {
		return errors.New("serve-mixed needs --qcserve (run.sh builds it)")
	}
	seeds := rand.New(rand.NewSource(e.seed))
	var setups []float64
	var srv *serverProc
	var circs []serveCircuit
	for i := 0; i < serveSetups; i++ {
		t := time.Now()
		var err error
		if circs, err = buildServeCircuits(seeds.Int63()); err != nil {
			return err
		}
		p, err := startServer(e)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
		if i < serveSetups-1 {
			if err := p.stop(); killedBySignal(err) {
				// qcserve answers /healthz before it installs its signal
				// handler, so a SIGTERM right after start can kill it
				// undrained; it holds no sessions yet, and its data dir
				// lies under the scratch dir removed at exit.
				rep.notes = append(rep.notes, "a just-started qcserve died on SIGTERM before installing its handler")
			} else if err != nil {
				return fmt.Errorf("stopping qcserve: %w", err)
			}
		} else {
			srv = p
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
	}()

	s := &serveRun{e: e, rep: rep, cl: newHTTPClient(srv.base)}
	defer s.cl.c.CloseIdleConnections()
	ctx := context.Background()
	obsCtx, stopObs := context.WithCancel(ctx)
	var obs []observation
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.observe(obsCtx, &obs)
	}()
	stopObserver := func() {
		stopObs()
		wg.Wait()
	}
	defer stopObserver()

	// Every round runs each (circuit, tenant) pair once in a seeded
	// order.
	type pair struct {
		circ   int
		tenant string
	}
	var pairs []pair
	for c := range circs {
		for _, t := range serveTenants {
			pairs = append(pairs, pair{c, t})
		}
	}
	var roundRuns, roundTraced, roundShots, footprints, bounds []float64
	var lastRound []serveJob
	jobs := 0
	start := time.Now()
	iter := 0
	for r := 0; r < serveMinRounds || time.Since(start) < e.seconds; r++ {
		if r > 0 {
			var err error
			if circs, err = buildServeCircuits(seeds.Int63()); err != nil {
				return err
			}
		}
		traced := e.trace && r%2 == 1
		var round []serveJob
		for _, k := range seeds.Perm(len(pairs)) {
			p := pairs[k]
			j, ok := s.job(ctx, iter, &circs[p.circ], p.tenant, seeds.Int63(), traced)
			iter++
			if !ok {
				continue
			}
			jobs++
			round = append(round, j)
		}
		if len(round) != len(pairs) {
			continue
		}
		var run, sample float64
		for _, j := range round {
			run += j.run.Seconds()
			sample += j.sample.Seconds()
		}
		run /= float64(len(round))
		if traced {
			roundTraced = append(roundTraced, run)
		} else {
			roundRuns = append(roundRuns, run)
			roundShots = append(roundShots, float64(serveShots*len(round))/sample)
			for _, j := range round {
				footprints = append(footprints, float64(j.footprint))
				bounds = append(bounds, j.fidelity)
			}
		}
		lastRound = round
	}
	elapsed := time.Since(start)
	stopObserver()
	stopped = true
	if err := srv.stop(); err != nil {
		return fmt.Errorf("stopping qcserve: %w", err)
	}

	var lat, late []float64
	rep.tr.on = e.trace
	for _, o := range obs {
		rep.acct.attempt()
		if o.failed {
			rep.acct.fail("http", "observer: "+o.detail)
			continue
		}
		lat = append(lat, o.end.Sub(o.due).Seconds())
		late = append(late, o.start.Sub(o.due).Seconds())
		rep.tr.add("server.scrape_s", 0, -1, o.due, o.end)
	}

	n := len(roundRuns)
	rep.setE2E("setup_s", median(setups), len(setups), "median; circuit build + qcserve start to healthy")
	rep.setE2E("run_s", median(roundRuns), n, "median over rounds of the mean job time, submit to SSE done")
	rep.setE2E("shots_per_s", median(roundShots), n, fmt.Sprintf("median over rounds of %d-shot sample requests", serveShots))
	rep.setE2E("jobs_per_s", float64(jobs)/elapsed.Seconds(), jobs, "completed create→delete iterations per second")
	rep.setE2E("footprint_bytes", sum(footprints)/float64(len(footprints)), len(footprints), "mean of the done events' footprint")
	rep.setE2E("fidelity_bound", sum(bounds)/float64(len(bounds)), len(bounds), "mean of the done events' Eq. 11 bound")
	rep.setExtra("scrape_p90_s", "s", quantile(lat, 0.9), len(lat), fmt.Sprintf("observer latency from due time, every %v", observerPeriod))
	rep.setExtra("scrape_p50_s", "s", median(lat), len(lat), "observer latency from due time")
	rep.setExtra("observer_late_max_s", "s", quantile(late, 1), len(late), "how late the observer started a request")
	for _, t := range serveTenants {
		codes := map[string]int{}
		for _, j := range lastRound {
			if j.tenant == t {
				codes[j.admitCode]++
			}
		}
		rep.notes = append(rep.notes, fmt.Sprintf("tenant %s admitted as %v", t, codes))
	}
	if !e.trace {
		return rep.complete()
	}

	if err := s.countPass(lastRound); err != nil {
		return err
	}
	// The baseline of one job: the mean over the last round's circuits.
	err := reportBaseline(rep, func() (time.Duration, error) {
		var total time.Duration
		for _, c := range circs {
			d, err := soloBaseline(serveQubits, c.circ)()
			if err != nil {
				return 0, err
			}
			total += d
		}
		return total / time.Duration(len(circs)), nil
	})
	if err != nil {
		return err
	}
	untraced := median(roundRuns)
	rep.setLayer("trace.run_s", median(roundTraced), len(roundTraced), "median run_s of traced rounds")
	rep.setLayer("trace.untraced_run_s", untraced, n, "median run_s of untraced rounds")
	rep.setLayer("trace.overhead_s", median(roundTraced)-untraced, len(roundTraced), "traced minus untraced run_s")
	for _, name := range []string{"server.admit_s", "server.first_progress_s", "server.exec_s", "server.sample_s",
		"server.suspend_s", "server.resume_s", "server.scrape_s"} {
		d := rep.tr.durations(name)
		rep.setLayer(name, median(d), len(d), "median of spans")
	}
	rep.setLayer("trace.spans", float64(len(rep.tr.spans)), 1, "spans recorded (written under traces/)")
	return rep.complete()
}

// countPass replays one round's jobs through the facade on one worker,
// with the engine options qcserve builds for each admitted route, to
// read the engine counters qcserve does not expose. The replay runs the
// same circuit text, seed and priced budget as the server did.
func (s *serveRun) countPass(round []serveJob) error {
	rep := s.rep
	id := rep.tr.begin("count_pass", 0, -1)
	defer rep.tr.end(id)
	var total qcsim.Stats
	var rt rtSample
	var moved int64
	var samples []float64
	worstFid := 1.0
	var probe []complex128
	probeLevel := -1
	spill := filepath.Join(s.e.scratch, "replay-spill")
	if err := os.MkdirAll(spill, 0o755); err != nil {
		return err
	}
	ctx := context.Background()
	for _, j := range round {
		ref, _, refSim, err := reference(serveQubits, j.circ.circ, refWorkers)
		if err != nil {
			return fmt.Errorf("count pass: reference: %w", err)
		}
		refSim.Close()
		opts := []qcsim.Option{qcsim.WithSeed(j.seed), qcsim.WithWorkers(1), qcsim.WithBackend(qcsim.BackendCompressed)}
		if j.admitCode == "ADMIT_SPILL" {
			opts = append(opts, qcsim.WithSpill(spill, j.priced))
		} else {
			opts = append(opts, qcsim.WithMemoryBudget(j.priced))
		}
		rep.acct.attempt()
		sim, err := qcsim.New(serveQubits, opts...)
		if err != nil {
			rep.acct.failErr("replay new", err)
			return fmt.Errorf("count pass: %w", err)
		}
		r0 := readRuntime()
		res, err := sim.Run(ctx, j.circ.circ)
		d := readRuntime().sub(r0)
		rt.allocBytes, rt.gcCycles, rt.gcCPU = rt.allocBytes+d.allocBytes, rt.gcCycles+d.gcCycles, rt.gcCPU+d.gcCPU
		if err != nil {
			sim.Close()
			rep.acct.failErr("replay run", err)
			return fmt.Errorf("count pass: %w", err)
		}
		st, err := sim.FullState()
		if err == nil {
			t := time.Now()
			_, err = sim.Sample(serveShots)
			samples = append(samples, time.Since(t).Seconds())
		}
		moved += sim.BytesMoved()
		sim.Close()
		if err != nil {
			return fmt.Errorf("count pass: %w", err)
		}
		f, mismatch := verify(ref, st, res.FidelityLowerBound)
		if mismatch != "" {
			rep.acct.fail("mismatch", "replay: "+mismatch)
		}
		worstFid = min(worstFid, f)
		maxFp, maxRes := max(total.MaxFootprint, res.Stats.MaxFootprint), max(total.MaxResident, res.Stats.MaxResident)
		total = total.Add(res.Stats)
		total.MaxFootprint, total.MaxResident = maxFp, maxRes
		if res.Stats.FinalLevel > probeLevel {
			probe, probeLevel = st, res.Stats.FinalLevel
		}
	}
	reportEngine(rep, total, moved, worstFid)
	rep.setLayer("core.sample_s", median(samples), len(samples), fmt.Sprintf("replay Sample(%d)", serveShots))
	rep.setLayer("go.gc_cycles", rt.gcCycles, 1, "replay runs")
	rep.setLayer("go.gc_cpu_s", rt.gcCPU, 1, "replay runs; runtime estimate")
	rep.setLayer("go.alloc_bytes", rt.allocBytes, 1, "replay runs")
	rep.notes = append(rep.notes, "engine layers replay one round of jobs through the facade (qcserve does not expose them); counts are summed over its jobs")
	return probeState(rep, probe, probeLevel)
}
