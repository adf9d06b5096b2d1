package encode_test

import (
	"fmt"

	"parallelspikesim/internal/encode"
)

// Example converts one bright pixel into a Poisson spike train at the
// paper's high-frequency band and counts spikes over one second.
func Example() {
	img := []uint8{255}
	band := encode.HighFrequencyBand()
	src, err := encode.NewSource(img, band, 7, 0)
	if err != nil {
		panic(err)
	}
	plan := src.BuildPlan(0, 1, 1000) // 1 s at dt = 1 ms
	spikes := 0
	for s := 0; s < plan.Steps(); s++ {
		spikes += len(plan.StepView(s))
	}
	fmt.Println("target rate:", band.Rate(img[0]), "Hz")
	fmt.Println("plausible count:", spikes > 50 && spikes < 110)
	// Output:
	// target rate: 78 Hz
	// plausible count: true
}
