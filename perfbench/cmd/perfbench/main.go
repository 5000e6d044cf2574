// Command perfbench is the repository's benchmark. It builds nothing
// itself (run.sh builds it and the qrec binaries), trains the served
// model with qrec-train, starts qrec-serve (and qrec-gw) with their
// default flags, drives one traffic mix open-loop over loopback HTTP,
// checks sampled answers against the library oracle and prints every
// metric by name and unit. The last line of standard output is the
// machine-readable result.
//
//	perfbench --workload cold-sdss --seed 1 --seconds 20 --trace 0
//
// With --trace 1 it also replays the same stream against in-process
// servers wrapped in timing spans and prints the per-layer metrics
// instead of the end-to-end ones.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/perfbench/loadgen"
	"repro/perfbench/mix"
	"repro/perfbench/stats"
	"repro/perfbench/tally"
	"repro/perfbench/trace"
)

// Served-model training: the same model on every run, whatever the
// workload seed.
const (
	trainSeed   = "42"
	trainPairs  = "800"
	trainEpochs = "1"
	trainDModel = "32"
	// setupReps is how many times a run sets the system up from scratch;
	// setup_s is their median and the last one is measured.
	setupReps = 3
	// grace is how long after the last scheduled send the run waits for
	// queued and in-flight calls before counting the rest as failed.
	grace = 10 * time.Second
	// basePort is where the serving processes' loopback ports start.
	basePort = 23400
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bin      string
	work     string
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "traffic mix: "+strings.Join(mix.Names, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: arrival times and request bodies are a pure function of it")
	flag.IntVar(&o.seconds, "seconds", 30, "length of the timed window")
	flag.IntVar(&traceFlag, "trace", 0, "1 also runs the traced in-process replay and prints per-layer metrics")
	flag.StringVar(&o.bin, "bin", ".bench_build/bin", "directory holding qrec-train, qrec-serve and qrec-gw")
	flag.StringVar(&o.work, "work", ".bench_build/runs", "scratch directory for models and logs")
	flag.Parse()
	o.trace = traceFlag == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := bench(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func bench(ctx context.Context, o options) (*result, error) {
	if o.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	// One generator process sharing the host with the servers: no more
	// scheduler threads or connections than CPUs.
	conns := runtime.NumCPU()
	runtime.GOMAXPROCS(conns)

	d := time.Duration(o.seconds) * time.Second
	m, err := mix.Build(o.workload, o.seed, d)
	if err != nil {
		return nil, err
	}
	bin, err := filepath.Abs(o.bin)
	if err != nil {
		return nil, err
	}
	for _, b := range []string{"qrec-train", "qrec-serve", "qrec-gw"} {
		if _, err := os.Stat(filepath.Join(bin, b)); err != nil {
			return nil, fmt.Errorf("missing binary (build with perfbench/run.sh): %w", err)
		}
	}
	work, err := filepath.Abs(o.work)
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}

	var setups []setupTimes
	var top *topology
	for rep := 0; rep < setupReps; rep++ {
		if top != nil {
			top.stop()
		}
		dir := filepath.Join(work, "setup"+strconv.Itoa(rep))
		var st setupTimes
		top, st, err = bringUp(ctx, bin, dir, m, conns)
		if err != nil {
			if top != nil {
				top.stop()
			}
			return nil, err
		}
		setups = append(setups, st)
	}
	meas, err := measure(ctx, top, m, conns)
	top.stop()
	if err != nil {
		return nil, err
	}
	rep := tally.Tally(m.Timed, meas.outs, m.Limit)
	mismatches, checks, err := checkOracle(top.modelDir, m, meas.outs, o.seed)
	if err != nil {
		return nil, err
	}

	res := &result{Correct: len(mismatches) == 0, Attempted: rep.Items, Failed: rep.Failed, Metrics: map[string]metric{}}
	cpuPerItem := 0.0
	if rep.Answered > 0 {
		cpuPerItem = stats.Ms(meas.cpu) / float64(rep.Answered)
	}
	setupS := medianOf(setups, func(s setupTimes) time.Duration { return s.total })
	e2e := []row{
		{"setup_s", setupS.Seconds(), "s", fmt.Sprintf("median of %d set-ups", len(setups))},
		{"lat_p50_ms", rep.P50, "ms", fmt.Sprintf("%d full-quality calls", rep.Tail.N)},
		{"lat_tail_ms", rep.Tail.Value, "ms", fmt.Sprintf("%s of %d calls, %d beyond", rep.Tail.Label(), rep.Tail.N, rep.Tail.Beyond)},
		{"lat_p90_ms", rep.P90, "ms", fmt.Sprintf("%d calls, %d beyond", rep.Tail.N, rep.Tail.N/10)},
		{"ok_share", rep.Share(rep.OK), "fraction", fmt.Sprintf("%d of %d items within %v", rep.OK, rep.Items, m.Limit)},
		{"degraded_share", rep.Share(rep.Degraded), "fraction", fmt.Sprintf("%d items", rep.Degraded)},
		{"fail_share", rep.Share(rep.Failed), "fraction", fmt.Sprintf("%d items", rep.Failed)},
		{"cpu_ms_per_req", cpuPerItem, "ms", fmt.Sprintf("%.2fs CPU over %d answered items", meas.cpu.Seconds(), rep.Answered)},
		{"rss_mb", float64(meas.rss) / (1 << 20), "MiB", fmt.Sprintf("peak RSS summed over %d processes", len(top.procs))},
	}
	fmt.Printf("workload %s seed %d: %d calls, %d items over %ds, %d oracle checks, host CPU steal %.1f%%\n",
		m.Name, o.seed, len(m.Timed), rep.Items, o.seconds, checks, 100*meas.steal)
	printRows("end-to-end", e2e)
	for _, mm := range mismatches {
		fmt.Printf("oracle mismatch: workload %s seed %d query %q: %s\n", m.Name, o.seed, mm.item.SQL, mm.diff)
	}
	if !o.trace {
		for _, r := range e2e {
			switch r.name {
			case "degraded_share", "fail_share", "lat_tail_ms":
				// Printed above; carried as per-layer outcome.* metrics
				// (see README.md: zero by design, or too few samples
				// beyond to repeat within a bound).
				continue
			}
			res.Metrics[r.name] = metric{r.value, r.unit}
		}
		return res, nil
	}

	tr, err := trace.Run(ctx, trace.Input{Mix: m, ModelDir: top.modelDir, Conns: conns, Grace: grace, Addrs: top.addrs()})
	if err != nil {
		return nil, err
	}
	layers := []row{
		{"train.wall_s", medianOf(setups, func(s setupTimes) time.Duration { return s.train }).Seconds(), "s", "qrec-train process wall time"},
		{"serve.ready_s", medianOf(setups, func(s setupTimes) time.Duration { return s.ready }).Seconds(), "s", "slowest serving process: start to healthz 200"},
		{"loadgen.lag_p99_ms", rep.LagP99, "ms", "generator release minus schedule"},
		{"outcome.degraded_share", rep.Share(rep.Degraded), "fraction", "untraced run"},
		{"outcome.fail_share", rep.Share(rep.Failed), "fraction", "untraced run"},
		{"outcome.lat_tail_ms", rep.Tail.Value, "ms", fmt.Sprintf("untraced run, %s of %d calls, %d beyond", rep.Tail.Label(), rep.Tail.N, rep.Tail.Beyond)},
	}
	for _, l := range tr.Layers {
		layers = append(layers, row{l.Name, l.Value, l.Unit, l.Note})
	}
	overhead := 0.0
	if rep.P50 > 0 {
		overhead = tr.LatP50Ms/rep.P50 - 1
	}
	layers = append(layers, row{"trace.overhead_share", overhead, "fraction",
		fmt.Sprintf("traced p50 %.3fms vs untraced %.3fms", tr.LatP50Ms, rep.P50)})
	printRows("per-layer", layers)
	for _, r := range layers {
		res.Metrics[r.name] = metric{r.value, r.unit}
	}
	return res, nil
}

// row is one printed metric.
type row struct {
	name  string
	value float64
	unit  string
	note  string
}

func printRows(title string, rows []row) {
	fmt.Printf("%s metrics:\n", title)
	for _, r := range rows {
		fmt.Printf("  %-26s %14.6f %-9s %s\n", r.name, r.value, r.unit, r.note)
	}
}

// setupTimes is one set-up of the system.
type setupTimes struct {
	total, train, ready time.Duration
}

func medianOf(s []setupTimes, f func(setupTimes) time.Duration) time.Duration {
	xs := make([]float64, len(s))
	for i := range s {
		xs[i] = float64(f(s[i]))
	}
	return time.Duration(stats.Median(xs))
}

// topology is the set of running serving processes of one set-up.
type topology struct {
	modelDir string
	replicas []*proc
	procs    []*proc // every serving process, gateway last
	front    string  // the URL the generator targets
}

func (t *topology) stop() {
	for i := len(t.procs) - 1; i >= 0; i-- {
		t.procs[i].stop()
	}
}

// addrs lists the processes' listen addresses, replicas first.
func (t *topology) addrs() []string {
	out := make([]string, len(t.procs))
	for i, p := range t.procs {
		out[i] = strings.TrimPrefix(p.url, "http://")
	}
	return out
}

func (t *topology) replicaURLs() string {
	urls := make([]string, len(t.replicas))
	for i, p := range t.replicas {
		urls[i] = p.url
	}
	return strings.Join(urls, ",")
}

// bringUp trains the model and starts the serving processes with their
// default flags, then sends the warm-up. The returned topology is running
// even when err is non-nil, so the caller can stop it.
func bringUp(ctx context.Context, bin, dir string, m *mix.Mix, conns int) (*topology, setupTimes, error) {
	var st setupTimes
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, st, err
	}
	t0 := time.Now()
	train, err := run(dir, "train.log", filepath.Join(bin, "qrec-train"),
		"-profile", m.Profile, "-seed", trainSeed, "-epochs", trainEpochs,
		"-max-pairs", trainPairs, "-dmodel", trainDModel, "-out", "model")
	if err != nil {
		return nil, st, err
	}
	st.train = train
	top := &topology{modelDir: filepath.Join(dir, "model")}
	for i := 0; i < m.Replicas; i++ {
		args := []string{"-model", "model"}
		if m.Gateway {
			args = append(args, "-replica-id", "r"+strconv.Itoa(i), "-enable-push")
		}
		p, err := startServing(dir, "serve"+strconv.Itoa(i), basePort+100*i, filepath.Join(bin, "qrec-serve"), args...)
		if err != nil {
			return top, st, err
		}
		top.replicas = append(top.replicas, p)
		top.procs = append(top.procs, p)
	}
	for _, p := range top.replicas {
		if err := p.waitHealthy(ctx); err != nil {
			return top, st, err
		}
		st.ready = max(st.ready, p.ready)
	}
	top.front = top.replicas[0].url
	if m.Gateway {
		gw, err := startServing(dir, "gw", basePort+100*m.Replicas, filepath.Join(bin, "qrec-gw"), "-replicas", top.replicaURLs())
		if err != nil {
			return top, st, err
		}
		top.procs = append(top.procs, gw)
		if err := gw.waitHealthy(ctx); err != nil {
			return top, st, err
		}
		st.ready = max(st.ready, gw.ready)
		top.front = gw.url
	}
	r := &loadgen.Runner{BaseURL: top.front, Conns: conns, Timeout: 60 * time.Second}
	for i, o := range r.Run(ctx, m.Warmup, time.Minute) {
		if o.Err != nil || o.Status != 200 {
			return top, st, fmt.Errorf("warm-up call %d: status %d: %v %s", i, o.Status, o.Err, o.Body)
		}
	}
	st.total = time.Since(t0)
	return top, st, nil
}

// measurement is what the timed window observed.
type measurement struct {
	outs []loadgen.Outcome
	cpu  time.Duration // serving processes' CPU over the window
	rss  int64         // summed peak RSS at the end
	// steal is the share of host CPU time the hypervisor withheld over
	// the window; -1 when /proc/stat is unreadable.
	steal float64
}

func cpuOf(procs []*proc) (time.Duration, error) {
	var sum time.Duration
	for _, p := range procs {
		c, err := cpuTime(p.cmd.Process.Pid)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.name, err)
		}
		sum += c
	}
	return sum, nil
}

// measure runs the timed window, with the mid-run model push when the
// mix has one.
func measure(ctx context.Context, top *topology, m *mix.Mix, conns int) (*measurement, error) {
	cpu0, err := cpuOf(top.procs)
	if err != nil {
		return nil, err
	}
	steal0, total0, stealErr := hostSteal()
	pushErr := make(chan error, 1)
	if m.PushAt > 0 {
		bin := filepath.Dir(top.procs[0].cmd.Path)
		dir := top.procs[0].cmd.Dir
		go func() {
			select {
			case <-time.After(m.PushAt):
			case <-ctx.Done():
				pushErr <- ctx.Err()
				return
			}
			_, err := run(dir, "push.log", filepath.Join(bin, "qrec-gw"),
				"-replicas", top.replicaURLs(), "-push", top.modelDir)
			pushErr <- err
		}()
	} else {
		pushErr <- nil
	}
	r := &loadgen.Runner{BaseURL: top.front, Conns: conns, Timeout: 60 * time.Second}
	outs := r.Run(ctx, m.Timed, grace)
	if err := <-pushErr; err != nil {
		return nil, fmt.Errorf("model push: %w", err)
	}
	cpu1, err := cpuOf(top.procs)
	if err != nil {
		return nil, err
	}
	meas := &measurement{outs: outs, cpu: cpu1 - cpu0, steal: -1}
	if steal1, total1, err := hostSteal(); err == nil && stealErr == nil && total1 > total0 {
		meas.steal = float64(steal1-steal0) / float64(total1-total0)
	}
	for _, p := range top.procs {
		rss, err := peakRSS(p.cmd.Process.Pid)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		meas.rss += rss
	}
	return meas, nil
}
