package lint

import "testing"

func TestHotalloc(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"direct-builtins", `package fix

// texlint:hotpath
func hot(xs []int, n int) []int {
	ys := make([]int, 0, n) //want calls make
	ys = append(ys, xs...)  //want calls append
	p := new(int)           //want calls new
	_ = p
	return ys
}

func cold(n int) []int {
	return make([]int, n) // unreachable from any hot root: fine
}
`},
		{"transitive-reach", `package fix

type thing struct{ v int }

// texlint:hotpath
func root(x int) *thing {
	return helper(x)
}

func helper(x int) *thing {
	t := new(thing) //want calls new
	t.v = x
	return t
}
`},
		{"closure-in-reachable", `package fix

// texlint:hotpath
func root() int {
	return helper()()
}

func helper() func() int {
	return func() int { return 1 } //want allocates a closure
}
`},
		{"string-concat", `package fix

// texlint:hotpath
func hot(a, b string) string {
	return a + b //want concatenates strings
}

// texlint:hotpath
func constOK() string {
	return "a" + "b" // constant-folded at compile time
}
`},
		{"interface-dispatch", `package fix

type shaper interface{ area() int }

// texlint:hotpath
func hot(s shaper) int {
	return s.area() //want dynamically through an interface
}
`},
		{"implicit-boxing", `package fix

func sink(v interface{}) {}

// texlint:hotpath
func hot(x int) {
	sink(x) //want boxes int into an interface argument
}

// texlint:hotpath
func nilOK() {
	sink(nil) // untyped nil boxes nothing
}
`},
		{"concrete-method-ok", `package fix

type counter struct{ n int }

func (c *counter) bump() { c.n++ }

// texlint:hotpath
func hot(c *counter) {
	c.bump() // static dispatch on a concrete receiver
}
`},
		{"texlint-hotpath-marker", `package fix

// texlint:hotpath
func entry(xs []int) []int {
	return helper(xs)
}

func helper(xs []int) []int {
	return append(xs, 1) //want calls append
}
`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { testAnalyzer(t, Hotalloc, "fix", c.src) })
	}
}
