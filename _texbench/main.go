// Command texbench is the texcache benchmark. An untraced run drives one
// workload — the exact 13-spec Village sweep, a single-spec City trace
// replay, or the analytic fast sweep over the Village — as a closed loop
// with one operation in flight for a fixed time, checks every
// operation's cache counters against the golden oracle, and prints the
// end-to-end metrics. A traced run (-trace 1) instead runs the stage-cut
// pass and the engine ledger (stages.go) and prints the per-layer
// metrics. Either way the last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}; the line before
// it is the run manifest.
//
// Usage, from the repository root:
//
//	bash _texbench/run.sh --workload village-sweep --seed 1 --seconds 20 --trace 0
//
// and, to recapture the oracle from the serial reference engine:
//
//	(cd _texbench && go run . -regen-golden golden.json)
//
// README.md gives each workload's rationale and the layer → metric →
// workload map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("texbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 0, "input seed, recorded in the manifest; the inputs are the fixed bench-scale scenes at every seed")
	seconds := fs.Float64("seconds", 10, "measurement time of an untraced run")
	traced := fs.Int("trace", 0, "1 runs the stage cuts and engine ledger and prints the per-layer metrics")
	root := fs.String("root", ".", "repository checkout, read for the manifest's commit and source digest")
	regen := fs.String("regen-golden", "", "capture the oracle from the serial reference engine into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sc := benchScale()
	if *regen != "" {
		if err := regenGolden(*regen, sc, stderr); err != nil {
			fmt.Fprintln(stderr, "texbench:", err)
			return 1
		}
		return 0
	}
	if !isWorkload(*name) {
		fmt.Fprintf(stderr, "texbench: unknown workload %q (want one of %s)\n",
			*name, strings.Join(workloadNames, ", "))
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(stderr, "texbench: -trace must be 0 or 1, got %d\n", *traced)
		return 2
	}
	golden, err := loadGolden(goldenJSON)
	if err != nil {
		fmt.Fprintln(stderr, "texbench:", err)
		return 1
	}
	var res result
	var streams []streamTotals
	if *traced == 1 {
		res, streams, err = runTraced(sc, golden, stderr)
	} else {
		res, streams, err = runWorkload(*name, sc, golden, *seconds, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "texbench: %s: %v\n", *name, err)
		return 1
	}
	man, err := newManifest(*root, *name, *seed, *traced == 1, sc, streams)
	if err != nil {
		fmt.Fprintln(stderr, "texbench:", err)
		return 1
	}
	if err := writeJSONLine(stdout, man); err != nil {
		fmt.Fprintln(stderr, "texbench:", err)
		return 1
	}
	if err := writeJSONLine(stdout, res); err != nil {
		fmt.Fprintln(stderr, "texbench:", err)
		return 1
	}
	return 0
}

// writeJSONLine writes v as one line of JSON.
func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
