// Package gpumem models the device-memory constraint that drives two of
// the paper's behaviors:
//
//   - Full-graph training skips event graphs whose stored activations
//     would exceed GPU memory ("Exa.TrkX will skip particle graphs that
//     are too large to be trained").
//   - Bulk sampling chooses how many minibatches k to sample at once from
//     the aggregate memory across P devices ("our approach is able to
//     sample more minibatches in bulk as we increase the number of GPUs
//     due to increased aggregate memory").
//
// The model counts float64 activation elements (8 bytes each) against a
// per-device byte capacity, reserving a fraction for weights, optimizer
// state, and workspace.
package gpumem

// BytesPerElement is the storage cost of one activation element.
const BytesPerElement = 8

// Device describes one simulated accelerator.
type Device struct {
	// CapacityBytes is total device memory (A100: 40 GiB).
	CapacityBytes int64
	// ActivationFraction is the share of capacity available for stored
	// activations after weights/optimizer/workspace.
	ActivationFraction float64
}

// A100 returns the configuration of the paper's hardware.
func A100() Device {
	return Device{CapacityBytes: 40 << 30, ActivationFraction: 0.8}
}

// ScaledDevice returns a device with the given activation budget in
// bytes — experiments use small budgets so the skip behaviour manifests
// at laptop scale.
func ScaledDevice(activationBytes int64) Device {
	return Device{CapacityBytes: activationBytes, ActivationFraction: 1.0}
}

// ActivationBudgetBytes returns the bytes available for activations.
func (d Device) ActivationBudgetBytes() int64 {
	return int64(float64(d.CapacityBytes) * d.ActivationFraction)
}

// FitsActivations reports whether a training step storing elements
// float64 activations fits on the device.
func (d Device) FitsActivations(elements int) bool {
	return int64(elements)*BytesPerElement <= d.ActivationBudgetBytes()
}

// BulkBatchCount returns how many minibatches can be sampled in one bulk
// invocation given P devices and the activation footprint of a single
// sampled minibatch. At least 1, at most maxBatches (the number of
// batches remaining). The aggregate across devices grows linearly with P,
// which is what makes k rise superlinearly useful in Figure 3.
func BulkBatchCount(d Device, devices int, perBatchElements int, maxBatches int) int {
	if maxBatches < 1 {
		return 0
	}
	if perBatchElements <= 0 {
		return maxBatches
	}
	aggregate := d.ActivationBudgetBytes() * int64(devices)
	k := int(aggregate / (int64(perBatchElements) * BytesPerElement))
	if k < 1 {
		k = 1
	}
	if k > maxBatches {
		k = maxBatches
	}
	return k
}
