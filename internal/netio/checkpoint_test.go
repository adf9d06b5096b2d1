package netio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"parallelspikesim/internal/dataset"
	"parallelspikesim/internal/fault"
	"parallelspikesim/internal/learn"
	"parallelspikesim/internal/network"
	"parallelspikesim/internal/synapse"
)

// trainedSetup builds a small live pipeline: network, trainer, and data.
func trainedSetup(t *testing.T, neurons int, seed uint64) (*network.Network, *learn.Trainer, *dataset.Dataset) {
	t.Helper()
	syn, _, err := synapse.PresetConfig(synapse.PresetFloat, synapse.Stochastic)
	if err != nil {
		t.Fatal(err)
	}
	syn.Seed = seed
	ds := dataset.SynthDigits(36, 5)
	net, err := network.New(network.DefaultConfig(ds.Pixels(), neurons, syn))
	if err != nil {
		t.Fatal(err)
	}
	opts := learn.DefaultOptions()
	opts.Control.TLearnMS = 120
	opts.NumClasses = ds.NumClasses
	tr, err := learn.New(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	return net, tr, ds
}

func TestCheckpointRoundTrip(t *testing.T) {
	net, tr, ds := trainedSetup(t, 5, 21)
	if err := tr.Train(ds.Subset(0, 9), nil); err != nil {
		t.Fatal(err)
	}
	snap := CaptureCheckpoint(net, tr)
	snap.Trainer.Streams = [][4]uint64{{1, 2, 3, 4}, {5, 6, 7, 8}}

	var buf bytes.Buffer
	if err := snap.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Trainer == nil {
		t.Fatal("trainer section lost")
	}
	if !reflect.DeepEqual(got.Trainer, snap.Trainer) {
		t.Fatalf("trainer state round trip:\n got %+v\nwant %+v", got.Trainer, snap.Trainer)
	}
	if !reflect.DeepEqual(got.G, snap.G) || !reflect.DeepEqual(got.Theta, snap.Theta) {
		t.Fatal("payload round trip mismatch")
	}
}

// writeLegacyPSS1 serializes a snapshot in the pre-checksum V1 layout, as
// the seed version of this package wrote it.
func writeLegacyPSS1(s *Snapshot) []byte {
	var buf bytes.Buffer
	buf.Write(magicV1[:])
	fmtCode := uint32(0)
	if !s.Format.Float {
		fmtCode = 1<<31 | uint32(s.Format.IntBits)<<16 | uint32(s.Format.FracBits)
	}
	for _, v := range []uint32{uint32(s.NumInputs), uint32(s.NumNeurons), fmtCode, uint32(len(s.Assignments))} {
		binary.Write(&buf, binary.BigEndian, v)
	}
	for _, x := range s.G {
		binary.Write(&buf, binary.BigEndian, math.Float64bits(x))
	}
	for _, x := range s.Theta {
		binary.Write(&buf, binary.BigEndian, math.Float64bits(x))
	}
	for _, a := range s.Assignments {
		binary.Write(&buf, binary.BigEndian, int32(a))
	}
	return buf.Bytes()
}

func TestReadLegacyPSS1(t *testing.T) {
	net, _, _ := trainedSetup(t, 4, 3)
	want := Capture(net, &learn.Model{Assignments: []int{1, -1, 3, 0}})
	raw := writeLegacyPSS1(want)

	got, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("legacy PSS1 rejected: %v", err)
	}
	if !reflect.DeepEqual(got.G, want.G) || !reflect.DeepEqual(got.Theta, want.Theta) ||
		!reflect.DeepEqual(got.Assignments, want.Assignments) {
		t.Fatal("legacy payload mismatch")
	}
	if got.Trainer != nil {
		t.Fatal("legacy snapshot grew a trainer section")
	}
}

// Every single-bit flip anywhere in a PSS2 file must be rejected — the
// CRC32 guarantees it for the checksummed region, the magic/trailer checks
// for the rest.
func TestPSS2RejectsEveryBitFlip(t *testing.T) {
	net, tr, ds := trainedSetup(t, 4, 7)
	if err := tr.Train(ds.Subset(0, 6), nil); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := CaptureCheckpoint(net, tr).Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Every byte with a cycling bit position: CRC32 detects any single-bit
	// error, so one flipped bit per byte covers the payload. Every bit of
	// the regions parsed before the checksum kicks in — magic + header,
	// and the checksum trailer itself.
	splitWall(t, len(raw), func(t *testing.T, lo, hi int) {
		mut := bytes.Clone(raw)
		for i := lo; i < hi; i++ {
			first, last := i%8, i%8
			if i < 24 || i >= len(raw)-4 {
				first, last = 0, 7
			}
			for bit := first; bit <= last; bit++ {
				mut[i] ^= 1 << bit
				if _, err := Read(bytes.NewReader(mut)); err == nil {
					t.Fatalf("bit flip at byte %d bit %d accepted", i, bit)
				}
				mut[i] ^= 1 << bit
			}
		}
	})
}

// Every truncation of a PSS2 file must be rejected: the payload lengths
// are header-driven and the checksum trailer must be present in full.
func TestPSS2RejectsEveryTruncation(t *testing.T) {
	net, tr, ds := trainedSetup(t, 4, 7)
	if err := tr.Train(ds.Subset(0, 6), nil); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := CaptureCheckpoint(net, tr).Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	splitWall(t, len(raw), func(t *testing.T, lo, hi int) {
		for n := lo; n < hi; n++ {
			if _, err := Read(bytes.NewReader(raw[:n])); err == nil {
				t.Fatalf("truncation to %d of %d bytes accepted", n, len(raw))
			}
		}
	})
}

// wallParts is the number of parallel subtests an exhaustive per-byte wall
// is split into.
const wallParts = 8

// splitWall runs check over [0, n) as wallParts parallel subtests, each
// owning a disjoint range [lo, hi); together they cover every index once.
func splitWall(t *testing.T, n int, check func(t *testing.T, lo, hi int)) {
	for k := 0; k < wallParts; k++ {
		lo, hi := k*n/wallParts, (k+1)*n/wallParts
		t.Run(fmt.Sprintf("bytes[%d,%d)", lo, hi), func(t *testing.T) {
			t.Parallel()
			check(t, lo, hi)
		})
	}
}

func TestPSS2RejectsUnknownFlags(t *testing.T) {
	net, _, _ := trainedSetup(t, 4, 7)
	var buf bytes.Buffer
	if err := Capture(net, nil).Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flags live in header word 5 (bytes 20..24 after the 4-byte magic).
	binary.BigEndian.PutUint32(raw[20:24], 0x80)
	if _, err := Read(bytes.NewReader(raw)); err == nil {
		t.Fatal("unknown flag bits accepted")
	}
}

func TestWriteRejectsInconsistentSnapshot(t *testing.T) {
	net, tr, ds := trainedSetup(t, 4, 7)
	if err := tr.Train(ds.Subset(0, 3), nil); err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*Snapshot){
		"short G":        func(s *Snapshot) { s.G = s.G[:3] },
		"short theta":    func(s *Snapshot) { s.Theta = nil },
		"excess assigns": func(s *Snapshot) { s.Assignments = make([]int, s.NumNeurons+1) },
		"resp shape":     func(s *Snapshot) { s.Trainer.Resp = s.Trainer.Resp[:1] },
		"resp row":       func(s *Snapshot) { s.Trainer.Resp[0] = s.Trainer.Resp[0][:2] },
		"spike counts":   func(s *Snapshot) { s.Trainer.SpikeCounts = nil },
		"bad window":     func(s *Snapshot) { s.Trainer.Moving.Window = 0 },
		"bad classes":    func(s *Snapshot) { s.Trainer.NumClasses = -1 },
	}
	for name, mutate := range cases {
		snap := CaptureCheckpoint(net, tr)
		mutate(snap)
		if err := snap.Write(&bytes.Buffer{}); err == nil {
			t.Errorf("%s: inconsistent snapshot written", name)
		}
	}
}

// A simulated crash at any byte of the save must leave the previous good
// snapshot readable at the destination path.
func TestSaveFileAtomicUnderCrashSweep(t *testing.T) {
	netA, _, _ := trainedSetup(t, 4, 31)
	netB, _, _ := trainedSetup(t, 4, 32)
	old := Capture(netA, nil)
	replacement := Capture(netB, nil)

	var sized bytes.Buffer
	if err := replacement.Write(&sized); err != nil {
		t.Fatal(err)
	}
	total := int64(sized.Len())

	mem := fault.NewMemFS()
	if err := SaveFileFS(mem, "model.pss", old); err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < total; k += 13 {
		in := fault.NewInjector(mem)
		in.CrashAfterBytes(k)
		err := SaveFileFS(in, "model.pss", replacement)
		if !errors.Is(err, fault.ErrCrash) {
			t.Fatalf("crash at byte %d: err = %v", k, err)
		}
		got, err := LoadFileFS(mem, "model.pss")
		if err != nil {
			t.Fatalf("crash at byte %d corrupted the published snapshot: %v", k, err)
		}
		if !reflect.DeepEqual(got.G, old.G) {
			t.Fatalf("crash at byte %d replaced the snapshot with partial data", k)
		}
		// Whatever torn temp file the crash left behind must itself be
		// rejected by the checksum, never mistaken for a snapshot.
		if torn, ok := mem.ReadFile("model.pss.tmp"); ok && int64(len(torn)) > 0 {
			if _, err := Read(bytes.NewReader(torn)); err == nil && int64(len(torn)) < total {
				t.Fatalf("torn temp file of %d bytes accepted", len(torn))
			}
		}
	}
	// With no fault armed the save goes through and replaces the snapshot.
	if err := SaveFileFS(mem, "model.pss", replacement); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFileFS(mem, "model.pss")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.G, replacement.G) {
		t.Fatal("successful save did not replace the snapshot")
	}
}

// Transient I/O errors (a failing sync, a failing rename) must fail the
// save loudly, keep the old snapshot, clean up the temp file, and let an
// immediate retry succeed.
func TestSaveFileTransientErrors(t *testing.T) {
	netA, _, _ := trainedSetup(t, 4, 31)
	netB, _, _ := trainedSetup(t, 4, 32)
	old := Capture(netA, nil)
	replacement := Capture(netB, nil)

	for _, op := range []fault.Op{fault.OpCreate, fault.OpWrite, fault.OpSync, fault.OpClose, fault.OpRename} {
		mem := fault.NewMemFS()
		if err := SaveFileFS(mem, "model.pss", old); err != nil {
			t.Fatal(err)
		}
		in := fault.NewInjector(mem)
		boom := fmt.Errorf("transient %s failure", op)
		in.FailOnce(op, boom)
		if err := SaveFileFS(in, "model.pss", replacement); !errors.Is(err, boom) {
			t.Fatalf("%s: err = %v, want %v", op, err, boom)
		}
		got, err := LoadFileFS(mem, "model.pss")
		if err != nil || !reflect.DeepEqual(got.G, old.G) {
			t.Fatalf("%s: old snapshot damaged (err %v)", op, err)
		}
		if _, ok := mem.ReadFile("model.pss.tmp"); ok {
			t.Errorf("%s: temp file left behind", op)
		}
		// The fault was transient: the retry must succeed.
		if err := SaveFileFS(in, "model.pss", replacement); err != nil {
			t.Fatalf("%s: retry failed: %v", op, err)
		}
	}
}

// The acceptance criterion of the crash-safety work: a training run killed
// at an arbitrary point and resumed from its last on-disk checkpoint is
// bit-identical — conductances, thetas, simulation clock, moving error
// curve, and final accuracy — to a run that was never interrupted.
func TestCrashResumeBitIdentical(t *testing.T) {
	testSet := dataset.SynthDigits(24, 1005)

	// Reference: uninterrupted training plus evaluation.
	netFull, trFull, ds := trainedSetup(t, 6, 77)
	if err := trFull.Train(ds, nil); err != nil {
		t.Fatal(err)
	}

	// Crashed run: periodic checkpoints to disk every 5 images; the
	// process "dies" after image 23, so images 21–23 are lost and the
	// last checkpoint on disk is from image 20.
	path := filepath.Join(t.TempDir(), "train.ckpt")
	netDead, trDead, _ := trainedSetup(t, 6, 77)
	trDead.CheckpointEvery = 5
	trDead.Checkpoint = func() error {
		return SaveFile(path, CaptureCheckpoint(netDead, trDead))
	}
	if err := trDead.Train(ds.Subset(0, 23), nil); err != nil {
		t.Fatal(err)
	}

	// Resume in a fresh process: new network, state from disk only.
	snap, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Trainer == nil {
		t.Fatal("checkpoint has no trainer section")
	}
	netRes, trRes, _ := trainedSetup(t, 6, 77)
	if err := snap.Restore(netRes); err != nil {
		t.Fatal(err)
	}
	if err := trRes.RestoreState(snap.Trainer); err != nil {
		t.Fatal(err)
	}
	if trRes.ImagesSeen != 20 {
		t.Fatalf("resumed at image %d, want 20", trRes.ImagesSeen)
	}
	if err := trRes.Train(ds, nil); err != nil {
		t.Fatal(err)
	}

	// Bit-identical network state.
	if netRes.Step() != netFull.Step() || netRes.Now() != netFull.Now() {
		t.Fatalf("clock diverged: step %d/%d now %v/%v",
			netRes.Step(), netFull.Step(), netRes.Now(), netFull.Now())
	}
	wFull, wRes := netFull.Syn.Weights(), netRes.Syn.Weights()
	for i := range wFull {
		if wFull[i] != wRes[i] {
			t.Fatalf("conductance %d diverged", i)
		}
	}
	for i, th := range netFull.Exc.Theta() {
		if netRes.Exc.Theta()[i] != th {
			t.Fatalf("theta %d diverged", i)
		}
	}
	if trFull.BoostCount != trRes.BoostCount || trFull.ImagesSeen != trRes.ImagesSeen {
		t.Fatalf("progress diverged: boosts %d/%d images %d/%d",
			trFull.BoostCount, trRes.BoostCount, trFull.ImagesSeen, trRes.ImagesSeen)
	}
	fullCurve, resCurve := trFull.MovingErrorCurve(), trRes.MovingErrorCurve()
	if !reflect.DeepEqual(fullCurve, resCurve) {
		t.Fatal("moving error curve diverged")
	}

	// Identical evaluation outcome.
	labelFull, inferFull := testSet.LabelInferSplit(12)
	modelFull, err := trFull.Label(labelFull)
	if err != nil {
		t.Fatal(err)
	}
	confFull, err := trFull.Evaluate(modelFull, inferFull)
	if err != nil {
		t.Fatal(err)
	}
	labelRes, inferRes := testSet.LabelInferSplit(12)
	modelRes, err := trRes.Label(labelRes)
	if err != nil {
		t.Fatal(err)
	}
	confRes, err := trRes.Evaluate(modelRes, inferRes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(modelFull.Assignments, modelRes.Assignments) {
		t.Fatal("neuron assignments diverged")
	}
	if confFull.Accuracy() != confRes.Accuracy() || !reflect.DeepEqual(confFull.Cells, confRes.Cells) {
		t.Fatalf("accuracy diverged: %.4f vs %.4f", confFull.Accuracy(), confRes.Accuracy())
	}
}
