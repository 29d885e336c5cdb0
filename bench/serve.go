package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/netmeasure/topicscope/internal/attestation"
	"github.com/netmeasure/topicscope/internal/crawler"
	"github.com/netmeasure/topicscope/internal/tranco"
	"github.com/netmeasure/topicscope/internal/webserver"
	"github.com/netmeasure/topicscope/internal/webworld"
)

const (
	spawnReps   = 9
	measureRate = 4000 // serve p50, CPU, allocation and writes are taken at this rate
	// A request slower than this counts as failed.
	failLatency = time.Second
	// The ladder stops once the oldest unsent request is this late, so
	// an overloaded step can never push a response past failLatency.
	abortLag = 250 * time.Millisecond
	// A step "meets the limit" with p99 at most limitP99 and a backlog
	// under limitLag at its end.
	limitP99 = 10 * time.Millisecond
	limitLag = 100 * time.Millisecond
)

// recorded is one request the in-process crawl sent, with the response
// the replay must reproduce.
type recorded struct {
	method, host, target string
	header               http.Header
	status, length       int
	kind                 string
}

// recorder keeps every request that reached the server (unreachable
// hosts fail in the transport and are not kept).
type recorder struct {
	world *webworld.World
	next  http.RoundTripper
	mu    sync.Mutex
	reqs  []recorded
}

func (rc *recorder) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := rc.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	rc.mu.Lock()
	rc.reqs = append(rc.reqs, recorded{
		method: req.Method, host: req.URL.Host, target: req.URL.RequestURI(),
		header: req.Header.Clone(), status: resp.StatusCode, length: len(body),
		kind: kindLabel(rc.world.Classify(req.URL.Host)),
	})
	rc.mu.Unlock()
	return resp, nil
}

// kindLabel is the /__metrics label topics-serve counts a host kind
// under.
func kindLabel(k webworld.HostKind) string {
	switch k {
	case webworld.HostSite:
		return "site"
	case webworld.HostSister:
		return "sister"
	case webworld.HostPlatform:
		return "platform"
	case webworld.HostCMP:
		return "cmp"
	case webworld.HostGTM:
		return "gtm"
	case webworld.HostLongTail:
		return "longtail"
	}
	return "unknown"
}

// record crawls the world's first n ranks in-process and returns every
// request that reached the server, in a deterministic order (the two
// workers interleave arbitrarily).
func record(ctx context.Context, t *tracer, world *webworld.World, n int) ([]recorded, error) {
	client := webserver.New(world, nil).Client()
	if t != nil {
		client.Transport = tracedRT{t: t, next: client.Transport}
	}
	rc := &recorder{world: world, next: client.Transport}
	client.Transport = rc
	cr := crawler.New(crawler.Config{
		Client:             client,
		ReferenceAllowlist: attestation.NewAllowlist(world.Catalog.AllowedDomains()...),
		Workers:            workers,
	})
	list := &tranco.List{Entries: world.List().Entries[:n]}
	err := t.do("crawler.run", func() (int64, error) {
		_, err := cr.Run(ctx, list)
		return 0, err
	})
	if err != nil {
		return nil, err
	}
	if len(rc.reqs) == 0 {
		return nil, fmt.Errorf("the crawl sent no requests")
	}
	type keyed struct {
		key string
		rec recorded
	}
	ks := make([]keyed, len(rc.reqs))
	for i, r := range rc.reqs {
		var b strings.Builder
		fmt.Fprintf(&b, "%s %s %s", r.host, r.target, r.method)
		names := make([]string, 0, len(r.header))
		for k := range r.header {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(&b, "|%s=%s", k, strings.Join(r.header[k], ","))
		}
		ks[i] = keyed{b.String(), r}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	for i := range ks {
		rc.reqs[i] = ks[i].rec
	}
	return rc.reqs, nil
}

func sameRecording(a, b []recorded) error {
	if len(a) != len(b) {
		return fmt.Errorf("traced crawl sent %d requests, untraced %d", len(b), len(a))
	}
	for i := range a {
		if a[i].host != b[i].host || a[i].target != b[i].target || a[i].status != b[i].status || a[i].length != b[i].length {
			return fmt.Errorf("request %d differs between the traced and untraced crawls", i)
		}
	}
	return nil
}

// server is a running topics-serve child.
type server struct {
	cmd    *exec.Cmd
	addr   string
	cancel context.CancelFunc
	exited chan error
}

// listenWatch scans the server's standard output for its listening
// line and passes the address on once.
type listenWatch struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

func (w *listenWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sent {
		return len(p), nil
	}
	w.buf.Write(p)
	sc := bufio.NewScanner(bytes.NewReader(w.buf.Bytes()))
	for sc.Scan() {
		line := sc.Text()
		if i := strings.LastIndex(line, " on "); strings.HasPrefix(line, "serving ") && i > 0 {
			w.addr <- line[i+len(" on "):]
			w.sent = true
			w.buf.Reset()
			break
		}
	}
	return len(p), nil
}

// spawn starts topics-serve and returns once it is listening.
func spawn(bin string, seed uint64, sites int) (*server, time.Duration, error) {
	ctx, cancel := context.WithCancel(context.Background())
	cmd := exec.CommandContext(ctx, bin, "-seed", strconv.FormatUint(seed, 10),
		"-sites", strconv.Itoa(sites), "-addr", "127.0.0.1:0")
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	// The server must not outlive the benchmark, even if it dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.WaitDelay = 5 * time.Second
	watch := &listenWatch{addr: make(chan string, 1)}
	cmd.Stdout = watch
	cmd.Stderr = os.Stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		cancel()
		return nil, 0, err
	}
	s := &server{cmd: cmd, cancel: cancel, exited: make(chan error, 1)}
	go func() { s.exited <- cmd.Wait() }()
	startup, stop := context.WithTimeout(ctx, 60*time.Second)
	defer stop()
	select {
	case s.addr = <-watch.addr:
		return s, time.Since(start), nil
	case err := <-s.exited:
		cancel()
		return nil, 0, fmt.Errorf("topics-serve exited before listening: %v", err)
	case <-startup.Done():
		s.stop()
		return nil, 0, fmt.Errorf("topics-serve did not listen within a minute")
	}
}

// stop sends SIGTERM (SIGKILL after 5 s) and waits for the exit.
func (s *server) stop() {
	s.cancel()
	<-s.exited
}

// scrapeKinds reads topics-serve's per-kind request counters.
func scrapeKinds(addr string) (map[string]int64, error) {
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 10 * time.Second}
	resp, err := client.Get("http://" + addr + webserver.MetricsPath)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), `topicscope_requests_total{kind="`)
		if !ok {
			continue
		}
		kind, count, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(count, 10, 64)
		if err != nil {
			return nil, err
		}
		out[kind] = n
	}
	return out, sc.Err()
}

// arrival is one scheduled send; step indexes the ladder, -1 is the
// warm-up.
type arrival struct {
	at   time.Duration
	step int
}

// schedule pre-draws the open-loop Poisson arrivals from the seed: a
// warm-up at the first ladder rate, then one step per rate.
func schedule(seed uint64, rates []int, warmup time.Duration, steps []time.Duration) []arrival {
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	var out []arrival
	var base time.Duration
	add := func(rate int, d time.Duration, idx int) {
		t := 0.0
		for {
			t += rng.ExpFloat64() / float64(rate)
			at := time.Duration(t * float64(time.Second))
			if at >= d {
				break
			}
			out = append(out, arrival{at: base + at, step: idx})
		}
		base += d
	}
	add(rates[0], warmup, -1)
	for i, rate := range rates {
		add(rate, steps[i], i)
	}
	return out
}

// ladderResult holds per-request timings (ns from the ladder's start)
// and the resources used during the measured step.
type ladderResult struct {
	sent             int // requests released, a prefix of the schedule
	enq, deq, done   []int64
	ok               []bool
	cpu              time.Duration // server CPU
	allocMB, writeMB float64       // generator allocation, server writes
	stepSent         int           // requests released in the measured step
	warmFailed       int           // mismatches in the warm-up pass over the recording
}

// runLadder replays the recorded requests cyclically on the pre-drawn
// schedule over two keep-alive connections. A pacer releases each
// request at its scheduled time into an unbounded queue (open loop);
// two workers, one per connection, send them in order.
func runLadder(s *server, reqs []recorded, sched []arrival, measureStep int) *ladderResult {
	n := len(sched)
	lr := &ladderResult{
		enq: make([]int64, n), deq: make([]int64, n), done: make([]int64, n),
		ok: make([]bool, n),
	}
	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers, DisableCompression: true},
		CheckRedirect: func(*http.Request, []*http.Request) error {
			return http.ErrUseLastResponse
		},
		Timeout: 5 * time.Second,
	}
	defer client.CloseIdleConnections()

	// One untimed closed-loop pass over the whole recording fills the
	// server's page cache and opens the two connections.
	var next, warmFailed atomic.Int64
	var warm sync.WaitGroup
	for w := 0; w < workers; w++ {
		warm.Add(1)
		go func() {
			defer warm.Done()
			for i := int(next.Add(1) - 1); i < len(reqs); i = int(next.Add(1) - 1) {
				if !send(client, s.addr, &reqs[i]) {
					warmFailed.Add(1)
				}
			}
		}()
	}
	warm.Wait()
	lr.warmFailed = int(warmFailed.Load())

	jobs := make(chan int, n) // one slot per scheduled send: the pacer never blocks
	var dequeued atomic.Int64
	start := time.Now()
	since := func() int64 { return int64(time.Since(start)) }

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				lr.deq[i] = since()
				dequeued.Add(1)
				lr.ok[i] = send(client, s.addr, &reqs[i%len(reqs)])
				lr.done[i] = since()
			}
		}()
	}

	// The measured step is sched[from:to]; resources are sampled as it
	// starts and ends.
	from, to := n, n
	for i := n - 1; i >= 0; i-- {
		if sched[i].step == measureStep {
			from = i
		} else if sched[i].step > measureStep {
			to = i
		}
	}
	var before, after usage
	var cpu0, cpu1 time.Duration
	var wchar0, wchar1 int64
	pid := s.cmd.Process.Pid
	sample := func() (usage, time.Duration, int64) {
		c, _ := procCPU(pid)
		wc, _ := procWchar(strconv.Itoa(pid))
		return sampleUsage(), c, wc
	}
	for i := 0; i < n; i++ {
		if wait := sched[i].at - time.Since(start); wait > 0 {
			pace(wait)
		}
		if oldest := dequeued.Load(); oldest < int64(i) && time.Since(start)-sched[oldest].at > abortLag {
			break // backlog: the step failed its limit, stop offering load
		}
		switch i {
		case from:
			before, cpu0, wchar0 = sample()
		case to:
			after, cpu1, wchar1 = sample()
		}
		lr.enq[i] = since()
		jobs <- i
		lr.sent++
	}
	close(jobs)
	wg.Wait()
	if lr.sent <= to {
		after, cpu1, wchar1 = sample()
	}
	if lr.sent > from {
		lr.stepSent = min(lr.sent, to) - from
		lr.cpu = cpu1 - cpu0
		lr.allocMB = costBetween(before, after).allocMB
		lr.writeMB = float64(wchar1-wchar0) / 1e6
	}
	return lr
}

// pace blocks the pacer for d of wall time. It calls nanosleep(2)
// directly: the Go runtime wakes an otherwise idle process from a timer
// only at millisecond granularity, which would add up to 1 ms of
// generator lateness to every sub-millisecond inter-arrival gap.
func pace(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	//topicslint:ignore vclock the open-loop pacer sends real requests to a separate server process on the wall clock; there is no virtual clock to advance
	_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the wait
}

// send replays one request and reports whether the response matches
// the recorded status and body length.
func send(client *http.Client, addr string, rec *recorded) bool {
	req, err := http.NewRequest(rec.method, "http://"+addr+rec.target, nil)
	if err != nil {
		return false
	}
	req.Host = rec.host
	req.Header = rec.header.Clone()
	resp, err := client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	return err == nil && resp.StatusCode == rec.status && int(n) == rec.length
}

// runServe measures topics-serve under the open-loop rate ladder.
func runServe(r *runner) error {
	ctx := context.Background()
	bin := filepath.Join(r.dir, "topics-serve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/topics-serve")
	build.Dir = r.cfg.root
	if out, err := build.CombinedOutput(); err != nil {
		return fmt.Errorf("building topics-serve: %v\n%s", err, out)
	}
	world := r.setupWorld(webworld.Config{Seed: r.cfg.seed, NumSites: r.size.serveSites})
	n := min(r.size.recordRanks, len(world.Sites))

	start := time.Now()
	reqs, err := record(ctx, nil, world, n)
	if err != nil {
		return err
	}
	untracedWall := time.Since(start).Seconds()
	if r.cfg.trace {
		t := newTracer()
		start = time.Now()
		traced, err := record(ctx, t, world, n)
		if err != nil {
			return err
		}
		wall := time.Since(start).Seconds()
		r.spans = append(r.spans, t.spans)
		r.layerOps = append(r.layerOps, layerValues(t.spans, wall))
		r.layers["trace.overhead_frac"] = wall/untracedWall - 1
		r.attempted++
		if err := sameRecording(reqs, traced); err != nil {
			r.fail("%v", err)
		}
	}
	fmt.Printf("recorded %d requests from a %d-site crawl\n", len(reqs), n)

	var s *server
	var spawns []float64
	for i := 0; i < spawnReps; i++ {
		if s != nil {
			s.stop()
		}
		var d time.Duration
		if s, d, err = spawn(bin, r.cfg.seed, r.size.serveSites); err != nil {
			return err
		}
		spawns = append(spawns, d.Seconds())
	}
	defer s.stop()
	r.setup = spawns // setup_s: the server's start-up, not the world's

	// The measured step takes half of the window after the warm-up, so
	// the end-to-end numbers average over seconds of the host's noise;
	// the other steps share the rest.
	measureStep := -1
	for i, rate := range r.size.rates {
		if rate == measureRate {
			measureStep = i
		}
	}
	if measureStep < 0 {
		return fmt.Errorf("the ladder has no %d req/s step", measureRate)
	}
	steps := make([]time.Duration, len(r.size.rates))
	rest := time.Duration(r.cfg.seconds*float64(time.Second)) - r.size.warmup
	for i := range steps {
		switch {
		case r.size.step > 0:
			steps[i] = r.size.step
		case i == measureStep:
			steps[i] = rest / 2
		default:
			steps[i] = rest / 2 / time.Duration(len(steps)-1)
		}
	}
	sched := schedule(r.cfg.seed, r.size.rates, r.size.warmup, steps)
	kinds0, err := scrapeKinds(s.addr)
	if err != nil {
		return err
	}
	// The generator allocates a few KB per request; collecting rarely
	// keeps its GC off the two cores the server shares.
	defer debug.SetGCPercent(debug.SetGCPercent(800))
	lr := runLadder(s, reqs, sched, measureStep)
	kinds1, err := scrapeKinds(s.addr)
	if err != nil {
		return err
	}
	rss, err := procPeakRSSMB(strconv.Itoa(s.cmd.Process.Pid))
	if err != nil {
		return err
	}
	r.e2e["peak_rss_mb"] = rss

	// Failures: non-matching or errored responses, and slow ones.
	want := map[string]int64{}
	r.attempted += len(reqs)
	for i := range reqs {
		want[reqs[i].kind]++
	}
	for i := 0; i < lr.warmFailed; i++ {
		r.fail("warm-up pass: response differs from the recorded crawl")
	}
	for i := 0; i < lr.sent; i++ {
		r.attempted++
		want[reqs[i%len(reqs)].kind]++
		lat := time.Duration(lr.done[i]) - sched[i].at
		if !lr.ok[i] || lat > failLatency {
			r.fail("request %d: matched=%v latency=%v", i, lr.ok[i], lat)
		}
	}
	r.attempted++
	for _, k := range hostKinds {
		delta := kinds1[k] - kinds0[k]
		r.layers["webserver.requests."+k] = float64(delta)
		if delta != want[k] {
			r.fail("/__metrics %s requests: server counted %d, replay sent %d", k, delta, want[k])
		}
	}

	maxRPS, meets := 0, true
	for si, rate := range r.size.rates {
		var lat, wait, late []float64
		lastLag := time.Duration(0)
		for i := 0; i < lr.sent; i++ {
			if sched[i].step != si {
				continue
			}
			lat = append(lat, float64(time.Duration(lr.done[i])-sched[i].at)/1e6)
			wait = append(wait, float64(lr.deq[i]-lr.enq[i])/1e6)
			late = append(late, float64(time.Duration(lr.enq[i])-sched[i].at)/1e6)
			lastLag = time.Duration(lr.deq[i]) - sched[i].at
		}
		complete := len(lat) > 0 && (lr.sent == len(sched) || sched[lr.sent].step > si)
		suffix := ".r" + strconv.Itoa(rate)
		p50, p99 := quantile(lat, 0.5), quantile(lat, 0.99)
		r.layers["serve.p50_ms"+suffix] = p50
		r.layers["serve.p99_ms"+suffix] = p99
		r.layers["serve.queue_wait_p99_ms"+suffix] = quantile(wait, 0.99)
		r.layers["serve.gen_late_ms"+suffix] = quantile(late, 0.99)
		fmt.Printf("step %6d req/s: %6d requests p10=%.3f p25=%.3f p50=%.3f p75=%.3f p90=%.3f p99=%.3f ms end backlog=%v\n",
			rate, len(lat), quantile(lat, 0.1), quantile(lat, 0.25), p50, quantile(lat, 0.75), quantile(lat, 0.9), p99, lastLag.Round(time.Microsecond))
		meets = meets && complete && p99 <= float64(limitP99)/1e6 && lastLag < limitLag
		if meets {
			maxRPS = rate
		}
		if si == measureStep {
			r.e2e["p50_ms"] = p50
		}
	}
	r.layers["serve.max_rps"] = float64(maxRPS)
	if lr.stepSent == 0 {
		return fmt.Errorf("no request was sent at %d req/s", measureRate)
	}
	per := float64(lr.stepSent)
	r.e2e["cpu_ms"] = lr.cpu.Seconds() * 1e3 / per
	r.e2e["alloc_mb"] = lr.allocMB / per
	r.e2e["write_mb"] = lr.writeMB / per
	return nil
}
