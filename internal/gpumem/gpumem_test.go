package gpumem

import "testing"

func TestFitsActivations(t *testing.T) {
	d := ScaledDevice(800) // 100 elements
	if !d.FitsActivations(100) {
		t.Fatal("100 elements should fit in 800 bytes")
	}
	if d.FitsActivations(101) {
		t.Fatal("101 elements should not fit in 800 bytes")
	}
}

func TestActivationFraction(t *testing.T) {
	d := Device{CapacityBytes: 1000, ActivationFraction: 0.5}
	if got := d.ActivationBudgetBytes(); got != 500 {
		t.Fatalf("budget %d, want 500", got)
	}
}

func TestA100Budget(t *testing.T) {
	d := A100()
	if d.CapacityBytes != 40<<30 {
		t.Fatalf("A100 capacity %d", d.CapacityBytes)
	}
	if !d.FitsActivations(1 << 30) { // 8 GiB of activations
		t.Fatal("A100 should fit 2^30 elements")
	}
}

func TestBulkBatchCountScalesWithDevices(t *testing.T) {
	d := ScaledDevice(8000) // 1000 elements per device
	perBatch := 100
	k1 := BulkBatchCount(d, 1, perBatch, 1000000)
	k4 := BulkBatchCount(d, 4, perBatch, 1000000)
	if k1 != 10 || k4 != 40 {
		t.Fatalf("k1=%d k4=%d, want 10/40", k1, k4)
	}
}

func TestBulkBatchCountClamps(t *testing.T) {
	d := ScaledDevice(80)
	if k := BulkBatchCount(d, 1, 1000000, 50); k != 1 {
		t.Fatalf("tiny memory should clamp to 1, got %d", k)
	}
	if k := BulkBatchCount(d, 64, 1, 5); k != 5 {
		t.Fatalf("k should clamp to maxBatches, got %d", k)
	}
	if k := BulkBatchCount(d, 1, 1, 0); k != 0 {
		t.Fatalf("zero batches should return 0, got %d", k)
	}
	if k := BulkBatchCount(d, 1, 0, 7); k != 7 {
		t.Fatalf("zero footprint should return all batches, got %d", k)
	}
}
