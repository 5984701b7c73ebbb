// Command livebench measures beacon-to-verdict cost through a live
// voiceprint daemon. For one workload it generates a seeded campaign
// trace, boots service.Server in-process on loopback, and replays the
// trace over one TCP connection as a closed loop: one client, one window
// of pre-encoded NDJSON lines outstanding, a DetectNow sweep at every
// stream-time boundary, and a wait for every receiver's verdict event.
//
//	bash livebench/run.sh --workload sparse-ingest --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same replay
// with spans recorded around the calls into each layer and prints the
// per-layer metrics. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics. README.md
// documents the workloads and what each metric is expected to move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// options is one invocation.
type options struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	// out receives the WAL directories while the run lasts and the
	// traced run's span dump.
	out string
	// malformed replaces that many lines of the last window with an
	// unparseable one; the smoke test uses it to check that a fault
	// surfaces as a failed operation.
	malformed int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: sparse-ingest or dense-compare")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the daemon only ever sees the inputs generated from it")
	flag.IntVar(&o.seconds, "seconds", 20, "run length; sets how many windows are replayed")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build/livebench-out", "directory for WAL files and span dumps")
	flag.Parse()
	o.traced = trace == 1
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "livebench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "livebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "livebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one invocation and reports its metrics by name and unit
// on log.
func run(o options, log io.Writer) (result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return result{}, err
	}
	tmp, err := os.MkdirTemp(o.out, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(tmp)
	in, err := w.generate(o.seed, o.seconds, o.malformed)
	if err != nil {
		return result{}, err
	}
	defer in.free()

	lr, err := live(w, in, o, tmp)
	if err != nil {
		return result{}, err
	}
	res := result{Attempted: lr.attempted, Failed: lr.failed, Metrics: map[string]metric{}}
	if o.traced {
		if err := layers(w, in, o, tmp, lr, res.Metrics, log); err != nil {
			return result{}, err
		}
	} else {
		endToEnd(lr, res.Metrics)
	}
	res.Correct = res.Failed == 0
	if res.Attempted < 1 {
		return result{}, errors.New("no operation attempted")
	}

	cfg, err := json.Marshal(describe(w, o, in, lr))
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(log, "config %s\n", cfg)
	fmt.Fprintf(log, "setup samples_s=%.4f\n", seconds(lr.setup))
	fmt.Fprintf(log, "recovery samples_s=%.4f cpu_s=%.4f\n", seconds(lr.recovery), seconds(lr.recoveryCPU))
	if !o.traced {
		bps, verdict, recovery := wallClock(lr)
		fmt.Fprintf(log, "wall beacons_per_s=%.6g verdict_p50_ms=%.6g recovery_s=%.6g\n", bps, verdict, recovery)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(log, "metric %-32s %16.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(log, "quality detection_rate=%.4f false_positive_rate=%.4f (Equations 12 and 13)\n", lr.dr, lr.fpr)
	fmt.Fprintf(log, "operations attempted=%d failed=%d (%s)\n", res.Attempted, res.Failed, lr.failures)
	return res, nil
}
