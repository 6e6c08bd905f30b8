package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// bench runs passes of one workload against freshly started daemons.
type bench struct {
	w       *workload
	bin     string
	scratch string
	dur     time.Duration
	// prefilled is the store directory an untimed daemon filled; every
	// measured daemon starts from a fresh copy of it.
	prefilled string
	stores    int
}

// flags are the daemon's command-line flags besides -addr: its defaults
// plus -pprof, and the store flags when the workload has a store.
func (b *bench) flags(storeDir string) []string {
	f := []string{"-pprof"}
	if storeDir != "" {
		f = append(f, "-store-dir", storeDir, "-memo-spill")
	}
	return f
}

// freshStore copies the prefilled store to a new directory, or returns
// "" for workloads without a store.
func (b *bench) freshStore() (string, error) {
	if b.prefilled == "" {
		return "", nil
	}
	b.stores++
	dir := filepath.Join(b.scratch, fmt.Sprintf("store-%d", b.stores))
	return dir, copyDir(b.prefilled, dir)
}

// prefillStore runs the workload's prefill requests through an untimed
// daemon and stops it, which drains the store's write-behind queue.
func (b *bench) prefillStore() error {
	b.prefilled = filepath.Join(b.scratch, "prefill")
	d, err := startDaemon(b.bin, b.flags(b.prefilled))
	if err != nil {
		return err
	}
	ph := runPhase(d.addr, [][]*request{b.w.prefill}, 0, false, 1)
	if err := d.stop(); err != nil {
		return err
	}
	for _, s := range ph.samples {
		if _, err := decode(s); err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
	}
	return nil
}

// passResult is one measured pass: its samples, what their responses
// said, and the daemon state around the timed phase.
type passResult struct {
	flags   []string
	setup   []time.Duration
	ph      phase
	samples []*sample
	ok      []bool
	// elapsed is each sample's first elapsed_ms as the daemon reported
	// it (NaN when the request failed); reports sums the explain
	// reports of a traced pass.
	elapsed       []float64
	reports       reportSum
	jobMS         float64 // median elapsed_ms over every job checked
	failed        int
	jobs          int // jobs answered in the timed phase
	keptJobs      int // of those, jobs whose responses were kept and checked
	decoded       int // responses kept and decoded
	before, after snapshot
	hwm           int64
	decodeTime    time.Duration
	logBytes      int64
}

// pass starts n daemons one after another, each from a fresh store copy,
// times exec → ready → warm-up for each, and runs the timed phase on the
// last one. The others are stopped before the next starts.
func (b *bench) pass(n int, trace bool) (*passResult, error) {
	p := &passResult{}
	var d *daemon
	for i := 0; i < n; i++ {
		store, err := b.freshStore()
		if err != nil {
			return nil, err
		}
		p.flags = b.flags(store)
		// Collect the benchmark's own garbage first, so its collector
		// does not compete with the daemon for the CPUs being timed.
		runtime.GC()
		start := time.Now()
		d, err = startDaemon(b.bin, p.flags)
		if err != nil {
			return nil, err
		}
		warm := runPhase(d.addr, [][]*request{b.w.warm}, 0, false, 1)
		p.setup = append(p.setup, time.Since(start))
		for _, s := range warm.samples {
			if _, err := decode(s); err != nil {
				d.stop()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		if i < n-1 {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	defer d.stop()
	runtime.GC()
	var err error
	if p.before, err = d.snapshot(); err != nil {
		return nil, err
	}
	keep := 1
	if trace {
		keep = b.w.traceKeepEvery
	}
	p.ph = runPhase(d.addr, b.w.timed, b.dur, trace, keep)
	if p.after, err = d.snapshot(); err != nil {
		return nil, err
	}
	if p.hwm, err = readHWM(d.pid()); err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	p.logBytes = d.log.n.Load()
	p.samples = p.ph.samples
	if p.ph.exhausted {
		fmt.Fprintln(os.Stderr, "perfbench: a connection ran out of requests before the phase ended")
	}
	b.checkAll(p)
	return p, nil
}

// checkAll decodes every response of the timed phase and checks its
// answers; a request counts as ok only when all of its jobs pass. The
// raw bodies are dropped once checked.
func (b *bench) checkAll(p *passResult) {
	c := newChecker(b.w)
	p.ok = make([]bool, len(p.samples))
	p.elapsed = make([]float64, len(p.samples))
	p.reports = reportSum{self: map[string]float64{}, ctr: map[string]float64{}}
	var jobMS []float64
	reported := 0
	for i, s := range p.samples {
		p.elapsed[i] = math.NaN()
		if s.resp.at == notKept {
			// Timed but not kept: a served answer, counted unchecked.
			if p.ok[i] = s.err == nil && s.status == 200; p.ok[i] {
				p.jobs += len(s.req.jobs)
			} else {
				p.failed++
			}
			continue
		}
		t := time.Now()
		outs, err := decode(s)
		p.decodeTime += time.Since(t)
		p.decoded++
		s.resp = respBody{}
		if err == nil {
			p.jobs += len(outs)
			p.keptJobs += len(outs)
			p.elapsed[i] = outs[0].ans.ElapsedMS
			for _, o := range outs {
				jobMS = append(jobMS, o.ans.ElapsedMS)
				p.reports.add(o.ans.Trace)
				if err = c.check(o); err != nil {
					break
				}
			}
		}
		p.ok[i] = err == nil
		if err != nil {
			p.failed++
			if reported < 5 {
				reported++
				fmt.Fprintf(os.Stderr, "perfbench: request %d failed: %v\n", i, err)
			}
		}
	}
	p.jobMS = median(jobMS)
}

// reportSum adds up explain reports: self ms per phase, counters, and
// report totals. Reports a dedup follower adopted from its leader
// (shared) are skipped, so no work counts twice.
type reportSum struct {
	self, ctr map[string]float64
	total     float64
}

func (r *reportSum) add(rep *report) {
	if rep == nil || rep.Shared {
		return
	}
	r.total += rep.TotalMS
	for _, ph := range rep.Phases {
		r.self[ph.Phase] += ph.SelfMS
	}
	for k, v := range rep.Counters {
		r.ctr[k] += float64(v)
	}
}

// describe adds the pass's facts to the run's record line.
func (p *passResult) describe(rec map[string]any, prefix string) {
	type counts struct{ Sent, OK, Failed int }
	per := map[string]*counts{}
	for i, s := range p.samples {
		c := per[s.req.path]
		if c == nil {
			c = &counts{}
			per[s.req.path] = c
		}
		c.Sent++
		if p.ok[i] {
			c.OK++
		} else {
			c.Failed++
		}
	}
	setupMS := make([]float64, len(p.setup))
	for i, d := range p.setup {
		setupMS[i] = ms(d)
	}
	rec[prefix+"requests"] = per
	rec[prefix+"jobs"] = p.jobs
	rec[prefix+"wall_s"] = p.ph.wall.Seconds()
	rec[prefix+"setup_ms"] = setupMS
	rec[prefix+"daemon_gomaxprocs"] = p.after.stats.Engine.Workers
	rec[prefix+"daemon_flags"] = p.flags
	rec[prefix+"host.steal_share"] = stealShare(p.before.host, p.after.host)
	rec[prefix+"access_log_bytes"] = p.logBytes
	rec[prefix+"percentile_samples"] = map[string]int{
		"latency": len(latencies(p)), "ttfr": len(ttfrs(p)),
	}
	if p.ph.exhausted {
		rec[prefix+"exhausted"] = true
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// commitOf names the code under test: the git commit when the tree is a
// repository, else a digest of the Go sources outside the benchmark.
func commitOf(root string) string {
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	h := sha256.New()
	filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		if e.IsDir() && (rel == "perfbench" || strings.HasPrefix(e.Name(), ".")) && rel != "." {
			return filepath.SkipDir
		}
		if !e.IsDir() && (strings.HasSuffix(path, ".go") || e.Name() == "go.mod") {
			if b, err := os.ReadFile(path); err == nil {
				io.WriteString(h, rel)
				h.Write(b)
			}
		}
		return nil
	})
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() || e.Name() == "LOCK" {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
