// Command perfbench is the BioOpera end-to-end benchmark. It drives one
// workload per invocation from a single process, checks every output, and
// prints its metrics as the last line of standard output:
//
//	go run . --workload local-durable --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run;
// with --trace 1 it runs the workload once untraced and once with every
// layer boundary wrapped, and reports the per-layer breakdown. See
// README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// processStart anchors setup_s: the first set-up counts from here.
var processStart = time.Now()

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	clients  int    // closed-loop clients: one per CPU
	work     string // scratch directory for stores, inside the checkout
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload returns: the result plus run metadata.
type outcome struct {
	result
	meta map[string]any
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]struct {
	fsync bool // durable writes: refuse a RAM-backed filesystem
	run   func(cfg config) (*outcome, error)
}{
	"local-durable": {true, runLocalDurable},
	"fed-gateway":   {false, runFedGateway},
	"remote-ship":   {false, runRemoteShip},
	"restart":       {true, runRestart},
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var cfg config
	var seconds int
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: local-durable, fed-gateway, remote-ship or restart")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer breakdown of a traced run")
	flag.Parse()
	wl, ok := workloads[cfg.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload {local-durable|fed-gateway|remote-ship|restart} --seed N --seconds N --trace {0|1}")
		return 2
	}
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	cfg.clients = runtime.NumCPU()

	work, err := filepath.Abs(filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", cfg.workload, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	cfg.work = work

	fs, err := fsType(work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if wl.fsync && fs == "tmpfs" {
		fmt.Fprintf(os.Stderr, "perfbench: %s measures fsync; %s is on tmpfs\n", cfg.workload, work)
		return 1
	}

	out, err := wl.run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	meta := runMeta(cfg, fs, wl.fsync)
	for k, v := range out.meta {
		meta[k] = v
	}
	if err := printOutcome(&out.result, meta); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// printOutcome prints the metadata and each metric on its own line, then
// the result object as the last line.
func printOutcome(r *result, meta map[string]any) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if m, err := json.Marshal(meta); err == nil {
		fmt.Printf("meta %s\n", m)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-34s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Println(string(data))
	return nil
}

// pass is one measurement over a deployment.
type pass struct {
	attempted, failed, activities int64
	latMs                         []float64
	seconds                       float64       // wall time measured
	cpu                           time.Duration // process CPU over it
	firstErr                      string
}

func (p *pass) rate() float64 { return ratio(float64(p.activities), p.seconds) }

// add appends q's samples and totals to p.
func (p *pass) add(q *pass) {
	p.attempted += q.attempted
	p.failed += q.failed
	p.activities += q.activities
	p.latMs = append(p.latMs, q.latMs...)
	p.seconds += q.seconds
	p.cpu += q.cpu
	if p.firstErr == "" {
		p.firstErr = q.firstErr
	}
}

// fail counts a failed operation, keeping the first reason.
func (p *pass) fail(reason string) {
	p.failed++
	if p.firstErr == "" {
		p.firstErr = reason
	}
}

// closedLoop runs cfg.clients clients against dep for d: each submits an
// instance, waits for its checked result, and submits the next. salt
// separates the input streams of different passes of one seed. The pass
// ends when every client has finished the instance it had in flight at
// the deadline.
func closedLoop(cfg config, dep *deployment, salt int64, d time.Duration) *pass {
	p := &pass{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed*1_000_003 + salt*1009 + c))
			mine := &pass{}
			for time.Now().Before(deadline) {
				t0 := time.Now()
				n, ok, err := dep.runOne(rng)
				mine.latMs = append(mine.latMs, float64(time.Since(t0))/1e6)
				mine.attempted++
				mine.activities += int64(n)
				switch {
				case err != nil:
					mine.fail(err.Error())
				case !ok:
					mine.fail("wrong output")
				}
			}
			mu.Lock()
			p.add(mine)
			mu.Unlock()
		}(int64(c))
	}
	wg.Wait()
	p.seconds = time.Since(start).Seconds()
	p.cpu = cpuTime() - cpu0
	return p
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// endToEnd builds the end-to-end metrics from the set-up times and a
// pass, shared by every workload. retained is the most instances the
// process held at once: every store here keeps archived instances in
// memory, so peak RSS grows with the instances a run completes, and only
// its ratio to them is comparable between versions of different speed.
func endToEnd(setups []float64, p *pass, retained int64) map[string]metric {
	p50, _ := percentile(p.latMs, 0.50)
	p90, _ := percentile(p.latMs, 0.90)
	return map[string]metric{
		"setup_s":              {median(setups), "s"},
		"activities_per_s":     {p.rate(), "1/s"},
		"instance_p50_ms":      {p50, "ms"},
		"instance_p90_ms":      {p90, "ms"},
		"cpu_us_per_activity":  {ratio(float64(p.cpu)/1e3, float64(p.activities)), "us"},
		"rss_kib_per_instance": {ratio(peakRSSMiB()*1024, float64(retained)), "KiB"},
	}
}

// passMeta records a pass's sample counts, its p99 (not gated: its
// run-to-run spread exceeds the 0.25 bound of the gated metrics) and
// whether that p99 has at least 10 samples beyond it.
func passMeta(p *pass) map[string]any {
	p99, resolved := percentile(p.latMs, 0.99)
	m := map[string]any{
		"peak_rss_mb":           peakRSSMiB(),
		"instances":             len(p.latMs),
		"activities":            p.activities,
		"measured_s":            p.seconds,
		"instance_p99_ms":       p99,
		"instance_p99_resolved": resolved,
	}
	if p.firstErr != "" {
		m["first_error"] = p.firstErr
	}
	return m
}
