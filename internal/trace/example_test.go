package trace_test

import (
	"bytes"
	"fmt"

	"texcache/internal/trace"
)

// printHandler prints each replayed event.
type printHandler struct{}

func (printHandler) BeginFrame() { fmt.Println("frame start") }

func (printHandler) Texel(tid uint32, u, v, m int) {
	fmt.Printf("  texel tid=%d (%d,%d) level %d\n", tid, u, v, m)
}

func (printHandler) EndFrame(pixels int64) {
	fmt.Printf("frame end, %d pixels\n", pixels)
}

// Example demonstrates recording a reference stream and replaying it.
func Example() {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	w.BeginFrame()
	w.Texel(3, 64, 32, 0)
	w.Texel(3, 65, 32, 0)
	w.EndFrame(2)
	if err := w.Close(); err != nil {
		panic(err)
	}

	frames, err := trace.ReplayFrames(&buf, printHandler{}, 0)
	if err != nil {
		panic(err)
	}
	fmt.Println("frames:", frames)
	// Output:
	// frame start
	//   texel tid=3 (64,32) level 0
	//   texel tid=3 (65,32) level 0
	// frame end, 2 pixels
	// frames: 1
}
