package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// buildDaemon compiles cmd/cqfitd from the tree under test into dir.
func buildDaemon(root, dir string) (string, error) {
	bin := filepath.Join(dir, "cqfitd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/cqfitd")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build cmd/cqfitd: %w", err)
	}
	return bin, nil
}

// countingSink drains the daemon's access log so a full pipe never
// blocks it, keeping only the byte count.
type countingSink struct{ n atomic.Int64 }

func (s *countingSink) Write(p []byte) (int, error) {
	s.n.Add(int64(len(p)))
	return len(p), nil
}

// daemon is one cqfitd child process on loopback.
type daemon struct {
	cmd   *exec.Cmd
	addr  string
	base  string
	log   countingSink
	probe *http.Client
	done  chan struct{}
	err   error // the process's exit status, set before done closes
}

// startDaemon execs bin with args plus a free loopback address and
// returns once GET /v1/stats answers 200.
func startDaemon(bin string, args []string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d := &daemon{
		addr:  addr,
		base:  "http://" + addr,
		probe: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{DisableCompression: true}},
		done:  make(chan struct{}),
	}
	d.cmd = exec.Command(bin, append(append([]string(nil), args...), "-addr", addr)...)
	d.cmd.Stderr = &d.log
	// A benchmark killed from outside takes its daemon with it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start cqfitd: %w", err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := d.probe.Get(d.base + "/v1/stats")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("cqfitd exited before it was ready: %v", d.err)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("cqfitd not ready after 30s")
		}
	}
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("pick a port: %w", err)
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop sends SIGTERM, which drains the store's write-behind queue, and
// waits for the process to exit; it kills a daemon that takes longer
// than 20 seconds.
func (d *daemon) stop() error {
	d.probe.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return fmt.Errorf("signal cqfitd: %w", err)
	}
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
		return errors.New("cqfitd did not exit within 20s of SIGTERM")
	}
	return nil
}

func (d *daemon) get(path string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.probe.Do(req)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, nil
}

// snapshot is the daemon's state at one instant: everything the
// per-phase deltas are computed from.
type snapshot struct {
	stats   daemonStats
	metrics map[string]float64
	mem     memStats
	cpu     procCPU
	host    hostCPU
}

func (d *daemon) snapshot() (snapshot, error) {
	var s snapshot
	var err error
	if s.host, err = readHostCPU("/proc/stat"); err != nil {
		return s, err
	}
	if s.cpu, err = readProcCPU(fmt.Sprintf("/proc/%d/stat", d.pid())); err != nil {
		return s, err
	}
	body, err := d.get("/v1/stats")
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(body, &s.stats); err != nil {
		return s, fmt.Errorf("decode /v1/stats: %w", err)
	}
	if body, err = d.get("/metrics"); err != nil {
		return s, err
	}
	s.metrics = parseMetrics(body)
	if body, err = d.get("/debug/pprof/heap?debug=1"); err != nil {
		return s, err
	}
	if s.mem, err = parseMemStats(body); err != nil {
		return s, err
	}
	return s, nil
}

// daemonStats is the part of GET /v1/stats the benchmark reads. Fields
// the daemon does not send stay zero.
type daemonStats struct {
	Engine struct {
		Workers     int   `json:"workers"`
		SolverRuns  int64 `json:"solver_runs"`
		DedupShared int64 `json:"dedup_shared"`
		Cache       struct {
			HomHits       int64 `json:"hom_hits"`
			HomMisses     int64 `json:"hom_misses"`
			CoreHits      int64 `json:"core_hits"`
			CoreMisses    int64 `json:"core_misses"`
			ProductHits   int64 `json:"product_hits"`
			ProductMisses int64 `json:"product_misses"`
		} `json:"cache"`
		Wait    avgStat `json:"queue_wait"`
		Streams struct {
			FirstResult avgStat `json:"first_result"`
		} `json:"streams"`
		Store struct {
			Hits          int64 `json:"hits"`
			Puts          int64 `json:"puts"`
			PutErrors     int64 `json:"put_errors"`
			Bytes         int64 `json:"bytes"`
			DroppedWrites int64 `json:"dropped_writes"`
		} `json:"store"`
		StoreHits int64 `json:"store_hits"`
		MemoSpill struct {
			FaultedHom     int64 `json:"faulted_hom"`
			FaultedCore    int64 `json:"faulted_core"`
			FaultedProduct int64 `json:"faulted_product"`
			Dropped        int64 `json:"dropped"`
		} `json:"memo_spill"`
	} `json:"engine"`
}

// avgStat is a count/average pair; the sum it implies makes deltas exact.
type avgStat struct {
	Count int64   `json:"count"`
	AvgMS float64 `json:"avg_ms"`
}

func (a avgStat) sum() float64 { return float64(a.Count) * a.AvgMS }

// parseMetrics reads Prometheus text exposition into series → value,
// keyed by the series name with its labels as written.
func parseMetrics(body []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// memStats holds the runtime.MemStats fields of a heap profile
// (GET /debug/pprof/heap?debug=1).
type memStats struct {
	TotalAlloc, Mallocs, NumGC uint64
	PauseNs                    []uint64
}

func parseMemStats(body []byte) (memStats, error) {
	var m memStats
	seen := 0
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		key, val, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), " = ")
		if !ok {
			continue
		}
		var dst *uint64
		switch key {
		case "TotalAlloc":
			dst = &m.TotalAlloc
		case "Mallocs":
			dst = &m.Mallocs
		case "NumGC":
			dst = &m.NumGC
		case "PauseNs":
			for _, f := range strings.Fields(strings.Trim(val, "[]")) {
				n, err := strconv.ParseUint(f, 10, 64)
				if err != nil {
					return m, fmt.Errorf("memstats PauseNs: %w", err)
				}
				m.PauseNs = append(m.PauseNs, n)
			}
			seen++
			continue
		default:
			continue
		}
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return m, fmt.Errorf("memstats %s: %w", key, err)
		}
		*dst = n
		seen++
	}
	if seen < 4 {
		return m, errors.New("heap profile carries no runtime.MemStats section")
	}
	return m, nil
}

// pauseMS sums the GC pauses between two memstats readings from the
// 256-entry PauseNs ring; when more cycles ran than the ring holds, the
// ring's mean stands in for the overwritten ones.
func pauseMS(before, after memStats) float64 {
	n := after.NumGC - before.NumGC
	ring := uint64(len(after.PauseNs))
	if n == 0 || ring == 0 {
		return 0
	}
	var sum uint64
	k := min(n, ring)
	for i := uint64(0); i < k; i++ {
		sum += after.PauseNs[(after.NumGC-1-i)%ring]
	}
	return float64(sum) / 1e6 * float64(n) / float64(k)
}

// procCPU is a process's user and system CPU time from /proc/<pid>/stat.
type procCPU struct{ user, sys time.Duration }

func (p procCPU) total() time.Duration { return p.user + p.sys }

// clockTick is USER_HZ, the unit of /proc CPU times on Linux.
const clockTick = 10 * time.Millisecond

func readProcCPU(path string) (procCPU, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return procCPU{}, err
	}
	return parseProcCPU(b)
}

func parseProcCPU(b []byte) (procCPU, error) {
	// The command name may hold spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return procCPU{}, errors.New("proc stat: no command field")
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return procCPU{}, errors.New("proc stat: too few fields")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return procCPU{}, fmt.Errorf("proc stat: %w", err)
	}
	return procCPU{user: time.Duration(ut) * clockTick, sys: time.Duration(st) * clockTick}, nil
}

// readHWM returns VmHWM, the process's peak resident set, in bytes.
func readHWM(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseHWM(b)
}

func parseHWM(b []byte) (int64, error) {
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb << 10, nil
		}
	}
	return 0, errors.New("status has no VmHWM line")
}

// hostCPU is the aggregate "cpu" line of /proc/stat, in ticks.
type hostCPU struct{ total, steal int64 }

func readHostCPU(path string) (hostCPU, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return hostCPU{}, err
	}
	return parseHostCPU(b)
}

func parseHostCPU(b []byte) (hostCPU, error) {
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, errors.New("proc stat: no aggregate cpu line")
	}
	var h hostCPU
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already inside user, so only the first eight add up.
	for i := 1; i <= 8; i++ {
		n, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return hostCPU{}, fmt.Errorf("proc stat: %w", err)
		}
		h.total += n
		if i == 8 {
			h.steal = n
		}
	}
	return h, nil
}

// stealShare is the fraction of host CPU time stolen by the hypervisor
// between two readings.
func stealShare(before, after hostCPU) float64 {
	if d := after.total - before.total; d > 0 {
		return float64(after.steal-before.steal) / float64(d)
	}
	return 0
}
