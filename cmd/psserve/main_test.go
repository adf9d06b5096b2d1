package main

// Startup-path tests: the flag → registry seeding (loadModels) and flag →
// continual trainer (newLearner) compilations run against real files in a
// temp dir, so the serving binary's boot sequence is exercised without
// opening a socket.

import (
	"path/filepath"
	"testing"

	"parallelspikesim/internal/check"
	"parallelspikesim/internal/config"
	"parallelspikesim/internal/netio"
	"parallelspikesim/internal/network"
	"parallelspikesim/internal/obs"
	"parallelspikesim/internal/registry"
)

// bootOptions is the flag set a minimal `psserve -learn` invocation would
// produce, minus the address: an 8-bit stochastic preset over a tiny net.
func bootOptions() options {
	var o options
	o.modelName = "default"
	o.model = config.Model{Rule: "stochastic", Preset: "8bit", Seed: 0x5eed}
	o.classes = 4
	o.learnEvery = 8
	o.learnQueue = 16
	o.learnShadow = 8
	o.learnMinDelta = -0.5
	o.learnMinHz = 7
	o.learnMaxHz = 60
	return o
}

// writeBootSnapshot captures a freshly wired network under the boot preset
// and saves it as a servable PSS2 file, exactly what `pssim -save` leaves
// behind for psserve to load.
func writeBootSnapshot(t *testing.T, path string, o options) {
	t.Helper()
	cfg, _, err := o.model.Resolve(9, 4)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	net, err := network.New(cfg)
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	snap := netio.Capture(net, nil)
	// A servable snapshot needs label assignments; stamp one class per neuron
	// as pssim's labeling pass would.
	snap.Assignments = []int{0, 1, 2, 3}
	if err := netio.SaveFile(path, snap); err != nil {
		t.Fatalf("saving snapshot: %v", err)
	}
}

func bootRegistry(t *testing.T, o options) *registry.Registry {
	t.Helper()
	build, err := newBuilder(o.model, o.classes, nil, nil)
	if err != nil {
		t.Fatalf("builder: %v", err)
	}
	models, err := registry.New(build, o.classes)
	if err != nil {
		t.Fatalf("registry: %v", err)
	}
	return models
}

func TestLoadModelsModes(t *testing.T) {
	check.NoLeaks(t)
	dir := t.TempDir()
	o := bootOptions()
	writeBootSnapshot(t, filepath.Join(dir, "default.pss"), o)

	t.Run("load-and-models-conflict", func(t *testing.T) {
		bad := o
		bad.load, bad.modelsDir = "x.pss", dir
		if err := loadModels(bootRegistry(t, bad), bad); err == nil {
			t.Fatal("-load and -models together accepted")
		}
	})
	t.Run("neither-flag", func(t *testing.T) {
		if err := loadModels(bootRegistry(t, o), o); err == nil {
			t.Fatal("startup with no snapshot source accepted")
		}
	})
	t.Run("load-single", func(t *testing.T) {
		single := o
		single.load = filepath.Join(dir, "default.pss")
		models := bootRegistry(t, single)
		if err := loadModels(models, single); err != nil {
			t.Fatalf("loadModels: %v", err)
		}
		m, ok := models.Get("default")
		if !ok || m.Gen != 1 || m.Engine.NumInputs() != 9 {
			t.Fatalf("loaded model %+v, ok=%v", m, ok)
		}
	})
	t.Run("models-dir", func(t *testing.T) {
		scan := o
		scan.modelsDir = dir
		models := bootRegistry(t, scan)
		if err := loadModels(models, scan); err != nil {
			t.Fatalf("loadModels: %v", err)
		}
		if _, ok := models.Get("default"); !ok {
			t.Fatal("rescan did not adopt default.pss")
		}
	})
	t.Run("models-dir-empty", func(t *testing.T) {
		scan := o
		scan.modelsDir = t.TempDir()
		if err := loadModels(bootRegistry(t, scan), scan); err == nil {
			t.Fatal("empty models dir accepted")
		}
	})
}

func TestNewLearnerFromFlags(t *testing.T) {
	check.NoLeaks(t)
	dir := t.TempDir()
	o := bootOptions()
	o.load = filepath.Join(dir, "default.pss")
	writeBootSnapshot(t, o.load, o)
	models := bootRegistry(t, o)

	if _, err := newLearner(o, models, obs.NewRegistry()); err == nil {
		t.Fatal("learner built before any model was loaded")
	}
	if err := loadModels(models, o); err != nil {
		t.Fatalf("loadModels: %v", err)
	}
	tr, err := newLearner(o, models, obs.NewRegistry())
	if err != nil {
		t.Fatalf("newLearner: %v", err)
	}
	defer tr.Close()
	tune := tr.Tune()
	if tune.EmitEvery != o.learnEvery || tune.MinDelta != o.learnMinDelta ||
		tune.ShadowSample != o.learnShadow {
		t.Fatalf("trainer tune %+v does not reflect flags %+v", tune, o)
	}
	if tune.MinHz != o.learnMinHz || tune.MaxHz != o.learnMaxHz {
		t.Fatalf("band overrides lost: %+v", tune)
	}
	// -learn-dir unset and no -models dir: checkpoints land beside -load.
	if got, want := tr.BasePath(), filepath.Join(dir, "default.base.ckpt"); got != want {
		t.Fatalf("base checkpoint at %s, want %s", got, want)
	}

	// A model published without a backing file cannot anchor replay.
	bare := bootRegistry(t, o)
	if _, err := bare.Publish("default", "", &stubModel{inputs: 9, classes: 4}); err != nil {
		t.Fatalf("publish: %v", err)
	}
	if _, err := newLearner(o, bare, obs.NewRegistry()); err == nil {
		t.Fatal("learner accepted a model with no snapshot path")
	}
}
