package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"bioopera/internal/store"
)

const (
	// setupReps is how many times a run boots its deployment; setup_s is
	// the median, so one slow boot does not move it.
	setupReps = 11
	// warmup runs the closed loop unmeasured first, so lazy set-up and
	// the first GC cycles land outside the measured phase.
	warmup = time.Second
)

// boot starts a workload's deployment, traced when tr is not nil.
type boot func(dir string, tr *tracer) (*deployment, error)

func runLocalDurable(cfg config) (*outcome, error) { return runServing(cfg, newLocalDurable) }

func runRemoteShip(cfg config) (*outcome, error) { return runServing(cfg, newRemoteShip) }

func runFedGateway(cfg config) (*outcome, error) {
	return runServing(cfg, func(_ string, tr *tracer) (*deployment, error) { return newFedGateway(tr) })
}

// runServing measures a closed-loop workload. Untraced, it boots the
// deployment setupReps times and measures the last boot; traced, it
// measures an untraced and a traced deployment one after the other.
func runServing(cfg config, build boot) (*outcome, error) {
	if cfg.trace {
		return runServingTraced(cfg, build)
	}
	var setups []float64
	var dep *deployment
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		d, err := build(filepath.Join(cfg.work, fmt.Sprintf("setup%d", i)), nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupReps-1 {
			if err := d.close(); err != nil {
				return nil, fmt.Errorf("teardown: %w", err)
			}
			continue
		}
		dep = d
	}
	fsyncUs := fsyncProbe(cfg.work)
	w := closedLoop(cfg, dep, 0, warmup)
	p := closedLoop(cfg, dep, 1, cfg.seconds)
	attempted, failed := w.attempted+p.attempted, w.failed+p.failed
	meta := passMeta(p)
	if dep.standby != nil {
		attempted++
		if _, err := awaitStandby(dep.disk, dep.standby); err != nil {
			failed++
			meta["standby_error"] = err.Error()
		}
	}
	fsyncUs = append(fsyncUs, fsyncProbe(cfg.work)...)
	if err := dep.close(); err != nil {
		return nil, fmt.Errorf("teardown: %w", err)
	}
	meta["setup_samples_s"] = setups
	meta["device_fsync_p50_us"] = median(fsyncUs)
	return &outcome{
		result: result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: endToEnd(setups, p, w.attempted+p.attempted)},
		meta:   meta,
	}, nil
}

func runServingTraced(cfg config, build boot) (*outcome, error) {
	dep, err := build(filepath.Join(cfg.work, "untraced"), nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	w := closedLoop(cfg, dep, 0, warmup)
	base := closedLoop(cfg, dep, 1, cfg.seconds)
	attempted, failed := w.attempted+base.attempted, w.failed+base.failed
	if err := dep.close(); err != nil {
		return nil, fmt.Errorf("teardown: %w", err)
	}
	// Start the traced deployment from the heap the untraced one had.
	runtime.GC()

	tr := newTracer()
	dep, err = build(filepath.Join(cfg.work, "traced"), tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	w = closedLoop(cfg, dep, 0, warmup)
	attempted, failed = attempted+w.attempted, failed+w.failed
	in := layerInput{tr: tr, remote: cfg.workload == "remote-ship", untracedRate: base.rate()}
	in.fsyncUs = fsyncProbe(cfg.work)
	tr.reset()

	var walBytes0 int64
	var disk0 store.Stats
	if dep.disk != nil {
		disk0 = diskStats(dep.disk, tr)
		walBytes0 = dirBytes(filepath.Join(dep.dir, "wal"))
	}
	runtime.ReadMemStats(&in.mem0)
	stopLag := sampleShipLag(dep, &in.shipLag)
	p := closedLoop(cfg, dep, 1, cfg.seconds)
	stopLag()
	runtime.ReadMemStats(&in.mem1)
	if dep.disk != nil {
		in.addDiskDelta(disk0, diskStats(dep.disk, tr))
		in.walBytes = float64(dirBytes(filepath.Join(dep.dir, "wal")) - walBytes0)
	}
	attempted, failed = attempted+p.attempted, failed+p.failed
	meta := passMeta(p)
	if dep.standby != nil {
		attempted++
		d, err := awaitStandby(dep.disk, dep.standby)
		if err != nil {
			failed++
			meta["standby_error"] = err.Error()
		}
		in.shipDrainMs = float64(d) / 1e6
	}
	in.fsyncUs = append(in.fsyncUs, fsyncProbe(cfg.work)...)
	if err := dep.close(); err != nil {
		return nil, fmt.Errorf("teardown: %w", err)
	}
	in.activities = float64(p.activities)
	in.tracedRate = p.rate()
	return tracedOutcome(cfg, in, attempted, failed, meta)
}

// tracedOutcome derives the per-layer metrics and writes the spans out.
func tracedOutcome(cfg config, in layerInput, attempted, failed int64, meta map[string]any) (*outcome, error) {
	in.spans = in.tr.finish()
	metrics, unresolved := layerMetrics(in)
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, cfg.workload+".tsv")
	if err := writeSpans(path, in.spans); err != nil {
		return nil, err
	}
	meta["spans"] = len(in.spans)
	meta["spans_file"] = path
	meta["unresolved_percentiles"] = unresolved
	return &outcome{
		result: result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics},
		meta:   meta,
	}, nil
}

// sampleShipLag samples, every 10 ms, how many WAL frames the standby
// trails the primary by, until the returned stop function is called.
func sampleShipLag(dep *deployment, out *[]float64) (stop func()) {
	if dep.standby == nil {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				p := dep.disk.Stats().WALNextSeq
				s := dep.standby.Store().Stats().WALNextSeq
				*out = append(*out, float64(p)-float64(s))
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// fsyncProbe times 100 fsyncs of 4 KiB appends to a file in dir, in µs.
// It explains drift in the fsync-bound figures; it is not one of them.
func fsyncProbe(dir string) []float64 {
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return nil
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	var out []float64
	for i := 0; i < 100; i++ {
		t0 := time.Now()
		if _, err := f.Write(buf); err != nil {
			return out
		}
		if err := f.Sync(); err != nil {
			return out
		}
		out = append(out, float64(time.Since(t0))/1e3)
	}
	return out
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}

// peakRSSMiB is the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	var kb float64
	for _, line := range strings.Split(string(data), "\n") {
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}

// diskStats reads Disk.Stats under a span.
func diskStats(d *store.Disk, tr *tracer) store.Stats {
	t0 := tr.now()
	st := d.Stats()
	tr.add("store.stats", "", t0)
	return st
}
