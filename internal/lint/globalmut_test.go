package lint

import "testing"

func TestGlobalmut(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"write-outside-init", `package fix

var counter int
var table = map[string]int{}

func init() {
	table["seed"] = 1 // init is the sanctioned place
}

func bump() {
	counter++ //want write to package-level counter
}

func set(k string, v int) {
	table[k] = v //want write to package-level table
}

func local() {
	counter := 0
	counter++ // shadowing local: fine
	_ = counter
}
`},
		{"exported-mutable", `package fix

var Exported = []int{1, 2} //want mutable shared state

var ExportedMap = map[string]int{} //want mutable shared state

var ExportedStruct struct{ N int } //want mutable shared state

var Threshold = 8 // scalar: copied on read, fine

var unexported = []int{1, 2} // unexported aggregate: rule 1 still guards writes

func Get() int { return unexported[0] }
`},
		{"once-guarded", `package fix

import "sync"

var once sync.Once
var lazy []int

func get() []int {
	once.Do(func() {
		lazy = []int{1, 2, 3}
	})
	return lazy
}
`},
		{"write-through-pointer", `package fix

var state struct{ n int }

func poke() {
	state.n = 4 //want write to package-level state
}
`},
		{"counter-in-value-function", `package fix

var calls int

// wrapCoord takes and returns values only, so its one possible side
// effect is a package-level write.
func wrapCoord(x, n int) int {
	calls++ //want write to package-level calls
	if x >= n {
		return n - 1
	}
	return x
}
`},
		{"compound-assign-in-callee", `package fix

var total int

func outer(x int) int {
	return bump(x)
}

func bump(x int) int {
	total += x //want write to package-level total
	return total
}
`},
		{"sub-slice-stored-in-global", `package fix

var window []byte

func keep(buf []byte) {
	window = buf[2:4] //want write to package-level window
}
`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { testAnalyzer(t, Globalmut, "fix", c.src) })
	}
}
