package experiments

import (
	"strings"
	"testing"
)

func TestAblateInhibitionSmoke(t *testing.T) {
	res, err := AblateInhibition(TestScale(), []float64{0, 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	if !strings.Contains(res.Render(), "t_inh") {
		t.Error("render missing knob name")
	}
}

func TestAblateWindowSmoke(t *testing.T) {
	res, err := AblateWindow(TestScale(), []float64{10, 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows", len(res.Rows))
	}
}

func TestAblateHomeostasisSmoke(t *testing.T) {
	res, err := AblateHomeostasis(TestScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	if res.Rows[0].Label != "enabled" || res.Rows[1].Label != "disabled" {
		t.Fatalf("labels %v", res.Rows)
	}
}

func TestAblateSynapticTraceSmoke(t *testing.T) {
	res, err := AblateSynapticTrace(TestScale(), []float64{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows", len(res.Rows))
	}
}

func TestAblateNoiseSmoke(t *testing.T) {
	s := TestScale()
	res, err := AblateNoise(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	if res.Rows[0].Corruption != "clean" {
		t.Fatalf("first row %q", res.Rows[0].Corruption)
	}
	for _, row := range res.Rows {
		if row.Det < 0 || row.Det > 1 || row.Stoch < 0 || row.Stoch > 1 {
			t.Fatalf("accuracy out of range: %+v", row)
		}
	}
	if !strings.Contains(res.Render(), "robustness") {
		t.Error("render header missing")
	}
}
