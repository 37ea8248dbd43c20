package lint

import "testing"

func TestMapiter(t *testing.T) {
	src := `package mapiter

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"sync"
)

func direct(m map[string]int) {
	for k := range m {
		fmt.Println(k) //want map iteration order
	}
}

func keysOf(m map[string]int) []string {
	out := []string{}
	for k := range m {
		out = append(out, k)
	}
	return out
}

// The order-dependence crosses a function boundary: keysOf's summary says
// its result carries map order.
func throughHelper(m map[string]int) {
	ks := keysOf(m)
	fmt.Println(ks) //want map iteration order
}

// Collect-then-sort launders the taint.
func collectThenSort(m map[string]int) {
	out := []string{}
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	fmt.Println(out)
}

// So does the slices.Sorted(maps.Keys(m)) pipeline.
func sortedPipeline(m map[string]int) {
	for _, k := range slices.Sorted(maps.Keys(m)) {
		fmt.Println(k)
	}
}

type resultSet struct {
	Results []string
}

// Map order reaching a Results slot poisons downstream merges even though
// nothing is printed here.
func fillResults(rs *resultSet, m map[string]int) {
	i := 0
	for k := range m {
		rs.Results[i] = k //want Results
		i++
	}
}

func emitAll(vs []string) {
	for _, v := range vs {
		fmt.Println(v)
	}
}

// emitAll's summary marks its parameter as sink-bound, so handing it
// unsorted keys is flagged at the call site.
func sinkViaParam(m map[string]int) {
	ks := keysOf(m)
	emitAll(ks) //want emits parameter
}

type emitter struct{}

func (e *emitter) Emit(s string) {}

// Module emit methods are sinks; fmt.Sprint propagates the taint into the
// argument.
func viaEmitter(e *emitter, m map[int]int) {
	for k := range m {
		e.Emit(fmt.Sprint(k)) //want map iteration order
	}
}

// Prefetch-collector miniature: slot-per-worker results indexed by job
// order, merged in job order. No map order involved anywhere.
func prefetchMerge(jobs []string) []string {
	results := make([]string, len(jobs))
	var wg sync.WaitGroup
	for i, job := range jobs {
		wg.Add(1)
		go func(i int, job string) {
			defer wg.Done()
			results[i] = job + "!"
		}(i, job)
	}
	wg.Wait()
	merged := []string{}
	for _, r := range results {
		merged = append(merged, r)
	}
	return merged
}

type report struct {
	out io.Writer
}

// printf is an output wrapper: its variadic args reach fmt.Fprintf
// behind the format.
func (r *report) printf(format string, args ...any) {
	fmt.Fprintf(r.out, format, args...)
}

// The map-ordered key is the wrapper's second variadic argument.
func throughPrintf(r *report, m map[string]int) {
	for _, k := range keysOf(m) {
		r.printf("%s %s\n", "key", k) //want emits parameter
	}
}

// Deterministic map reads (indexing with a known key) stay clean.
func mapIndexIsClean(m map[string]int, key string) {
	fmt.Println(m[key])
}
`
	testAnalyzer(t, Mapiter, "mapiter", src)
}
