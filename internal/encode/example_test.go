package encode_test

import (
	"fmt"

	"parallelspikesim/internal/encode"
)

// Example converts one bright pixel into a Poisson spike train at the
// paper's high-frequency band and counts spikes over one second.
func Example() {
	img := []uint8{255}
	src, err := encode.NewSource(img, encode.HighFrequencyBand(), 7, 0)
	if err != nil {
		panic(err)
	}
	spikes := src.BuildPlan(0, 1, 1000).Spikes() // 1 s at dt = 1 ms
	fmt.Println("target rate:", src.Rate(0), "Hz")
	fmt.Println("plausible count:", spikes > 50 && spikes < 110)
	// Output:
	// target rate: 78 Hz
	// plausible count: true
}
