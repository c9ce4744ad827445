// Command perfbench is the repository's wire-level serve benchmark: it
// starts rbc.NewServer in a child process, drives it over loopback TCP
// with rbc.Dial, checks every reply, and prints every metric by name and
// unit. See README.md for the workloads, the metrics and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// warmup runs before every window, unmeasured, so lazy set-up in the
// server (matcher pools, kernel calibration) is paid before timing.
const warmup = 2 * time.Second

// setupRuns is how many times a run sets the server up to report the
// median setup_s; one set-up alone spreads by a fifth across runs.
const setupRuns = 5

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := serveMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench serve:", err)
			os.Exit(1)
		}
		return
	}
	if err := benchMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type options struct {
	root     string
	workload workload
	seed     uint64
	window   time.Duration
	trace    bool
}

func benchMain(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	root := fs.String("root", ".", "checkout root; run files go under <root>/.bench_build")
	name := fs.String("workload", "", "inline-wal, escalate-d2 or mixed-tail")
	seed := fs.Uint64("seed", 1, "input seed: distances, client order, arrival times")
	seconds := fs.Int("seconds", 20, "measured window per run")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	o := options{root: *root, workload: w, seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	res, err := run(o)
	if err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runFiles are one server's paths under the run directory.
type runFiles struct{ data, keys, spans string }

func (o options) files(dir, tag string, traced bool) runFiles {
	f := runFiles{keys: filepath.Join(dir, tag+"-keys.json")}
	if o.workload.Durable {
		f.data = filepath.Join(dir, tag+"-data")
	}
	if traced {
		f.spans = filepath.Join(dir, tag+"-server-trace.json")
	}
	return f
}

func (f runFiles) args() []string {
	return []string{"-data", f.data, "-keys", f.keys, "-spans", f.spans}
}

func run(o options) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	dir := filepath.Join(o.root, ".bench_build", "run", fmt.Sprintf("%s-%d-%d", o.workload.Name, o.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	d, err := newGenerator(o.workload, o.seed)
	if err != nil {
		return result{}, err
	}
	rep := &report{correct: true}

	if !o.trace {
		probe := time.Duration(float64(o.window) * o.workload.ProbeShare)
		var setups []float64
		var srv *serverProc
		var f runFiles
		for i := range setupRuns {
			f = o.files(dir, fmt.Sprintf("setup%d", i), false)
			if srv, err = startServer(exe, f.args()...); err != nil {
				return result{}, err
			}
			setups = append(setups, srv.setup.Seconds())
			if i < setupRuns-1 {
				if err := srv.stop(); err != nil {
					return result{}, err
				}
			}
		}
		defer srv.kill()
		p, err := d.measure(srv, warmup, o.window-probe, probe, false)
		if err != nil {
			return result{}, err
		}
		if err := d.finish(srv, f, rep); err != nil {
			return result{}, err
		}
		rep.addPhase(p, d)
		return rep.endToEnd(p, median(setups))
	}

	// Traced run: the window in two halves, untraced then traced, each on
	// a fresh server; the difference is the tracing overhead. Halving
	// keeps a traced run as long as an untraced one.
	var phases [2]*phase
	var traces serverTrace
	for i, traced := range []bool{false, true} {
		d.resetKeys()
		f := o.files(dir, fmt.Sprintf("run%d", i), traced)
		srv, err := startServer(exe, f.args()...)
		if err != nil {
			return result{}, err
		}
		defer srv.kill()
		if phases[i], err = d.measure(srv, warmup, o.window/2, 0, traced); err != nil {
			return result{}, err
		}
		if err := d.finish(srv, f, rep); err != nil {
			return result{}, err
		}
		rep.addPhase(phases[i], d)
		if traced {
			if err := readJSON(f.spans, &traces); err != nil {
				return result{}, err
			}
		}
	}
	out := filepath.Join(o.root, ".bench_build", "trace", fmt.Sprintf("%s-seed%d-spans.json", o.workload.Name, o.seed))
	return rep.perLayer(phases[0], phases[1], &traces, out)
}

// finish stops the server and, where it dumped its RA, checks it
// against the keys the clients last received.
func (d *generator) finish(srv *serverProc, f runFiles, rep *report) error {
	if err := srv.stop(); err != nil {
		return err
	}
	if f.data == "" {
		return nil
	}
	bad, err := d.checkKeys(f.keys)
	if err != nil {
		return err
	}
	rep.fail(bad...)
	return nil
}
