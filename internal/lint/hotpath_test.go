package lint

import "testing"

func TestHotpath(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"fmt", `package fix

import "fmt"

// Access is per-texel.
//
// texlint:hotpath
func Access(x int) string {
	return fmt.Sprintf("%d", x) //want calls fmt.Sprintf
}

// Cold is not annotated, so formatting is fine.
func Cold(x int) string {
	return fmt.Sprintf("%d", x)
}

// Retired carries texsim:hot, an old spelling that no longer marks a
// function hot.
func Retired(x int) string {
	return fmt.Sprintf("%d", x)
}
`},
		{"closure", `package fix

// texlint:hotpath
func Access(xs []int) int {
	f := func(v int) int { return v * 2 } //want allocates a closure
	return f(xs[0])
}
`},
		{"assert-and-convert", `package fix

import "io"

type buf struct{}

func (buf) Write(p []byte) (int, error) { return len(p), nil }

// texlint:hotpath
func Access(v any, b buf) (io.Writer, bool) {
	_, ok := v.(io.Writer) //want type assertion
	w := io.Writer(b)      //want converts
	return w, ok
}
`},
		{"panic-dynamic", `package fix

// texlint:hotpath
func Access(i, n int) {
	if i >= n {
		panic("fix: index out of range") // constant message: allowed
	}
	if i < 0 {
		panic("fix: bad index " + string(rune(i))) //want non-constant
	}
}
`},
		{"defer-go", `package fix

// texlint:hotpath
func Access(f func()) {
	defer f() //want defers
	go f()    //want goroutine
}
`},
		{"clean", `package fix

type cache struct {
	tags []uint64
	hits int64
}

// Access is the real shape of the simulator's hot path: integer ops,
// slice indexing, field updates.
//
// texlint:hotpath
func (c *cache) Access(tag uint64, set uint32) bool {
	i := int(set) % len(c.tags)
	if c.tags[i] == tag {
		c.hits++
		return true
	}
	c.tags[i] = tag
	return false
}
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			testAnalyzer(t, Hotpath, "hotpath_"+tc.name, tc.src)
		})
	}
}
