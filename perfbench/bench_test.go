package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"extremalcq/internal/engine"
	"extremalcq/internal/hom"
	"extremalcq/internal/instance"
)

// bodies flattens every request a workload sends, in order.
func bodies(w *workload) [][]byte {
	var out [][]byte
	for _, seq := range append([][]*request{w.prefill, w.warm}, w.timed...) {
		for _, r := range seq {
			out = append(out, r.payload())
		}
	}
	return out
}

func TestSameSeedSameBodies(t *testing.T) {
	for _, name := range []string{"solve-1c", "stream-1c", "serve-2c"} {
		t.Run(name, func(t *testing.T) {
			a, err := generate(name, 7, 1)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := generate(name, 7, 1)
			c, _ := generate(name, 8, 1)
			ba, bb, bc := bodies(a), bodies(b), bodies(c)
			if len(ba) != len(bb) {
				t.Fatalf("seed 7 gave %d and %d requests", len(ba), len(bb))
			}
			for i := range ba {
				if !bytes.Equal(ba[i], bb[i]) {
					t.Fatalf("request %d differs between two runs of seed 7", i)
				}
			}
			same := len(ba) == len(bc)
			for i := 0; same && i < len(ba); i++ {
				same = bytes.Equal(ba[i], bc[i])
			}
			if same {
				t.Fatal("seeds 7 and 8 gave identical requests")
			}
		})
	}
}

// TestBodiesAreAccepted decodes every distinct body the way cqfitd does
// and builds it, so no workload sends a job the daemon refuses.
func TestBodiesAreAccepted(t *testing.T) {
	for _, name := range []string{"solve-1c", "stream-1c", "serve-2c"} {
		w, err := generate(name, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, seq := range append([][]*request{w.prefill, w.warm}, w.timed...) {
			for _, r := range seq {
				s := &sample{req: r}
				if seen[string(r.payload())] {
					continue
				}
				seen[string(r.payload())] = true
				if _, _, err := timeBuild([]*sample{s}); err != nil {
					t.Fatalf("%s: %v\n%s", name, err, r.payload())
				}
			}
		}
	}
}

func TestQuantileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := quantile(xs, .99); err == nil {
		t.Fatal("p99 of 999 samples: want an error")
	}
	xs = append(xs, 1000)
	if v, err := quantile(xs, .99); err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := quantile(xs[:99], .9); err == nil {
		t.Fatal("p90 of 99 samples: want an error")
	}
	if v, err := quantile(xs[:100], .9); err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
}

// streamServer answers like cqfitd's stream endpoint: three answer frames
// 60ms apart, then the terminal frame. With flush, each frame is flushed
// as written; without, they all leave when the handler returns.
func streamServer(flush bool) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		f := w.(http.Flusher)
		for i := 0; i < 3; i++ {
			fmt.Fprintf(w, "{\"index\":%d,\"query\":\"q(x) :- P(x)\"}\n", i)
			if flush {
				f.Flush()
			}
			time.Sleep(60 * time.Millisecond)
		}
		fmt.Fprintln(w, `{"done":true,"found":true,"results":3,"elapsed_ms":180}`)
	}))
}

func TestFirstFrameTimedAsItArrives(t *testing.T) {
	for _, flush := range []bool{true, false} {
		srv := streamServer(flush)
		addr := srv.Listener.Addr().String()
		r := &request{path: pathStream, parts: [][]byte{[]byte("{}")}, jobs: []int{0}}
		ph := runPhase(addr, [][]*request{{r, r}}, 0, false, 1)
		srv.Close()
		for _, s := range ph.samples {
			if s.err != nil || s.status != 200 {
				t.Fatalf("flush=%v: err %v status %d", flush, s.err, s.status)
			}
			ttfr, lat := s.first-s.start, s.latency()
			if lat < 150*time.Millisecond {
				t.Errorf("flush=%v: latency %v, want the whole 180ms stream", flush, lat)
			}
			if flush && ttfr > 50*time.Millisecond {
				t.Errorf("flushing server: first frame at %v, want it before the second frame (60ms)", ttfr)
			}
			if !flush && ttfr < 150*time.Millisecond {
				t.Errorf("unflushed server: first frame at %v, want it with the rest (>=150ms)", ttfr)
			}
			if got := s.resp.bytes(); bytes.Count(got, []byte("\n")) != 4 {
				t.Errorf("flush=%v: kept body %q, want four frames", flush, got)
			}
		}
	}
}

func TestOneShotBodyKeptAndInterned(t *testing.T) {
	n := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n++
		fmt.Fprintf(w, "{\n  \"found\": true,\n  \"elapsed_ms\": 0.%d5\n}\n", n)
	}))
	defer srv.Close()
	r := &request{path: pathJobs, parts: [][]byte{[]byte(`{"kind":`), []byte(`"cq"}`)}, jobs: []int{0}}
	ph := runPhase(srv.Listener.Addr().String(), [][]*request{{r, r, r}}, 0, false, 1)
	if len(ph.samples) != 3 {
		t.Fatalf("%d samples, want 3", len(ph.samples))
	}
	for i, s := range ph.samples {
		want := fmt.Sprintf("{\n  \"found\": true,\n  \"elapsed_ms\": 0.%d5\n}\n", i+1)
		if got := string(s.resp.bytes()); got != want {
			t.Errorf("sample %d kept %q, want %q", i, got, want)
		}
		if s.first == 0 || s.first > s.end {
			t.Errorf("sample %d: first %v end %v", i, s.first, s.end)
		}
	}
	if a, b := ph.samples[0].resp.shape, ph.samples[2].resp.shape; a != b || len(ph.samples[0].resp.shape) == 0 {
		t.Errorf("bodies that differ only in elapsed_ms were not interned: %q vs %q", a, b)
	}
}

func TestClientReconnectsAfterClose(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Connection", "close")
		fmt.Fprintln(w, `{"found":false,"elapsed_ms":1}`)
	}))
	defer srv.Close()
	r := &request{path: pathJobs, parts: [][]byte{[]byte("{}")}, jobs: []int{0}}
	ph := runPhase(srv.Listener.Addr().String(), [][]*request{{r, r, r}}, 0, false, 1)
	for i, s := range ph.samples {
		if s.err != nil || s.status != 200 {
			t.Fatalf("sample %d: err %v status %d", i, s.err, s.status)
		}
	}
}

func TestRefusedConnectionIsAFailedSample(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	r := &request{path: pathJobs, parts: [][]byte{[]byte("{}")}, jobs: []int{0}}
	ph := runPhase(addr, [][]*request{{r}}, 0, false, 1)
	if len(ph.samples) != 1 || ph.samples[0].err == nil {
		t.Fatalf("want one failed sample, got %+v", ph.samples)
	}
}

// Captured from cqfitd -pprof (GET /debug/pprof/heap?debug=1), trimmed.
const heapSample = `heap profile: 3: 1536 [3: 1536] @ heap/1048576
# runtime.MemStats
# Alloc = 675768
# TotalAlloc = 1675768
# Sys = 8344840
# Mallocs = 8786
# Frees = 2054
# PauseNs = [1000000 2000000 3000000 0 0]
# PauseEnd = [0 0 0 0 0]
# NumGC = 3
# NumForcedGC = 0
`

func TestParseMemStats(t *testing.T) {
	m, err := parseMemStats([]byte(heapSample))
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalAlloc != 1675768 || m.Mallocs != 8786 || m.NumGC != 3 || len(m.PauseNs) != 5 {
		t.Fatalf("parsed %+v", m)
	}
	before := memStats{NumGC: 1, PauseNs: m.PauseNs}
	if got := pauseMS(before, m); got != 5 {
		t.Fatalf("pause over GCs 2 and 3 = %vms, want 5", got)
	}
	if _, err := parseMemStats([]byte("heap profile: 0\n")); err == nil {
		t.Fatal("a profile without MemStats must be refused")
	}
}

// Captured from /proc/<pid>/stat and /proc/<pid>/status of a cqfitd and
// from /proc/stat on a 2-vCPU VM.
const (
	procStatSample   = "2333 (cqfitd x) S 1 2332 956 0 -1 4194304 909 0 0 0 157 42 0 0 20 0 7 0 24271 1718120448 2547 18446744073709551615 4194304 7656032"
	procStatusSample = "Name:\tcqfitd\nVmPeak:\t 1677852 kB\nVmHWM:\t   10456 kB\nVmRSS:\t   10456 kB\n"
	hostStatSample   = "cpu  186236 0 14135 350424 9381 0 2230 312 5 0\ncpu0 87 0 34 14270 154 0 2 1 0 0\n"
)

func TestParseProc(t *testing.T) {
	cpu, err := parseProcCPU([]byte(procStatSample))
	if err != nil {
		t.Fatal(err)
	}
	if cpu.user != 1570*time.Millisecond || cpu.sys != 420*time.Millisecond {
		t.Fatalf("proc cpu %+v, want user 1.57s sys 0.42s", cpu)
	}
	hwm, err := parseHWM([]byte(procStatusSample))
	if err != nil || hwm != 10456<<10 {
		t.Fatalf("VmHWM = %d, %v", hwm, err)
	}
	h, err := parseHostCPU([]byte(hostStatSample))
	if err != nil {
		t.Fatal(err)
	}
	if h.steal != 312 || h.total != 186236+14135+350424+9381+2230+312 {
		t.Fatalf("host cpu %+v", h)
	}
	if s := stealShare(hostCPU{total: 100, steal: 10}, hostCPU{total: 300, steal: 60}); s != .25 {
		t.Fatalf("steal share %v, want .25", s)
	}
	if _, err := parseProcCPU([]byte("2333 cqfitd")); err == nil {
		t.Fatal("a stat line without (comm) must be refused")
	}
}

func TestParseMetrics(t *testing.T) {
	m := parseMetrics([]byte("# HELP x y\n# TYPE cqfitd_rejected_total counter\ncqfitd_rejected_total 7\ncqfitd_hom_dispatch_total{path=\"jointree\"} 3\n"))
	if m["cqfitd_rejected_total"] != 7 || m[`cqfitd_hom_dispatch_total{path="jointree"}`] != 3 {
		t.Fatalf("parsed %v", m)
	}
}

func TestProductOfExamples(t *testing.T) {
	a := example{facts: []fact{{"R", []string{"a", "b"}}, {"R", []string{"b", "a"}}}, tuple: []string{"a"}}
	b := example{facts: []fact{{"R", []string{"x", "x"}}, {"P", []string{"x"}}}, tuple: []string{"x"}}
	p := product([]example{a, b})
	if len(p.facts) != 2 || p.tuple[0] != p.facts[0].args[0] {
		t.Fatalf("product %q", p.text())
	}
	if !p.inDomain(p.tuple[0]) {
		t.Fatal("the product's distinguished element must be in its domain")
	}
}

// TestSplitCoreShape pins the structure splitCore's comment relies on:
// the product splits into the 4-element triangle copy and a 16-element
// component with no directed triangle.
func TestSplitCoreShape(t *testing.T) {
	sch, err := engine.ParseSchema(schemaText(relsRP))
	if err != nil {
		t.Fatal(err)
	}
	p, err := instance.ParsePointed(sch, product(splitCore("t")).text())
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	for _, c := range instance.Components(p) {
		sizes = append(sizes, c.I.DomSize())
	}
	slices.Sort(sizes)
	if !slices.Equal(sizes, []int{4, 16}) {
		t.Fatalf("component sizes %v, want [4 16]", sizes)
	}
	tri, err := instance.ParsePointed(sch, cycle(3, "c").text())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range instance.Components(p) {
		if got, want := hom.Exists(tri, c), c.I.DomSize() == 4; got != want {
			t.Fatalf("triangle maps into the %d-element component: %v, want %v", c.I.DomSize(), got, want)
		}
	}
}

// TestCheckerCatchesWrongAnswers makes sure the checks can fail: a query
// that maps into a negative, a wrong known verdict and a UCQ that misses
// a positive are all rejected, and correct answers pass.
func TestCheckerCatchesWrongAnswers(t *testing.T) {
	w := &workload{}
	b := &builder{w: w}
	pos := example{facts: []fact{{"R", []string{"a", "b"}}, {"P", []string{"b"}}}, tuple: []string{"a"}}
	pos2 := example{facts: []fact{{"P", []string{"c"}}}, tuple: []string{"c"}}
	neg := example{facts: []fact{{"R", []string{"u", "v"}}}, tuple: []string{"u"}}
	construct := b.add(genJob{rels: relsRP, arity: 1, kind: "cq", task: "construct", pos: []example{pos}, neg: []example{neg}})
	exists := b.add(genJob{rels: relsRP, arity: 1, kind: "cq", task: "exists", pos: []example{pos}, neg: []example{neg}, want: wantProduct})
	ucq := b.add(genJob{rels: relsRP, arity: 1, kind: "ucq", task: "construct", pos: []example{pos, pos2}, neg: []example{neg}})
	c := newChecker(w)
	for _, tc := range []struct {
		o  outcome
		ok bool
	}{
		{outcome{job: construct, ans: answer{Found: true, Queries: []string{"q(x) :- R(x,y), P(y)"}}}, true},
		{outcome{job: construct, ans: answer{Found: true, Queries: []string{"q(x) :- R(x,y)"}}}, false},
		{outcome{job: construct, ans: answer{Found: true, Queries: []string{"q(⟨a,a⟩) :- R(⟨a,a⟩,⟨b,b⟩) ∧ P(⟨b,b⟩)"}}}, true},
		{outcome{job: construct, ans: answer{Error: "context deadline exceeded"}}, false},
		{outcome{job: exists, ans: answer{Found: true}}, true},
		{outcome{job: exists, ans: answer{Found: false}}, false},
		{outcome{job: ucq, ans: answer{Found: true, Queries: []string{"q(x) :- R(x,y) ∧ P(y) ∪ q(x) :- P(x)"}}}, true},
		{outcome{job: ucq, ans: answer{Found: true, Queries: []string{"q(x) :- R(x,y) ∧ P(y)"}}}, false},
	} {
		if err := c.check(tc.o); (err == nil) != tc.ok {
			t.Errorf("%v %v: check error %v, want ok=%v", w.jobs[tc.o.job].task, tc.o.ans, err, tc.ok)
		}
	}
}

func TestDecodeStreamFrames(t *testing.T) {
	body := "{\"index\":0,\"query\":\"q(x) :- P(x)\"}\n{\"done\":true,\"found\":true,\"results\":1,\"queries\":[\"q(x) :- P(x)\"],\"elapsed_ms\":2.5}\n{\"trace\":{\"total_ms\":2,\"phases\":[{\"phase\":\"enum\",\"self_ms\":1.5}],\"counters\":{\"hom_searches\":4}}}\n"
	s := &sample{req: &request{path: pathStream, jobs: []int{9}}, status: 200, resp: respBody{shape: body, at: -1}}
	outs, err := decode(s)
	if err != nil {
		t.Fatal(err)
	}
	o := outs[0]
	if o.job != 9 || len(o.frames) != 1 || !o.ans.Found || o.ans.ElapsedMS != 2.5 || o.ans.Trace == nil || o.ans.Trace.Counters["hom_searches"] != 4 {
		t.Fatalf("decoded %+v", o)
	}
	s.resp.shape = strings.SplitAfter(body, "\n")[0]
	if _, err := decode(s); err == nil {
		t.Fatal("a stream without its terminal frame must be refused")
	}
}
