// Package detector simulates a barrel tracking detector and the collision
// events the Exa.TrkX pipeline consumes. It substitutes for the paper's
// CTD and Ex3 datasets (gitlab.cern.ch/gnn4itkteam/acorn), which require
// CERN data access: charged particles follow helical trajectories in a
// solenoidal magnetic field, leave smeared hits on cylindrical detector
// layers, and ground-truth edges connect consecutive hits of the same
// particle. The CTDLike and Ex3Like specs preserve the feature widths and
// structural ratios reported in Table I of the paper, with a scale knob
// for laptop-sized runs.
package detector

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/workspace"
)

// Hit is one recorded 3D measurement.
type Hit struct {
	X, Y, Z  float64
	R, Phi   float64 // cylindrical coordinates derived from X, Y
	Layer    int     // detector layer index
	Particle int     // generating particle id, -1 for noise
}

// Event is one collision event: hits, per-hit features, and truth.
type Event struct {
	Hits     []Hit
	Features *tensor.Dense // len(Hits) × Spec.VertexFeatures

	// TruthSrc/TruthDst list ground-truth edges: consecutive recorded hits
	// of the same particle, ordered inner→outer layer.
	TruthSrc, TruthDst []int

	// Particles is the number of generated (not necessarily
	// reconstructable) particles.
	Particles int

	truthOnce sync.Once // builds truthSet on first use, safe across goroutines
	truthSet  map[[2]int]bool
}

// NumHits returns the vertex count of the event graph.
func (e *Event) NumHits() int { return len(e.Hits) }

// IsTruthEdge reports whether (a, b) — in either orientation — is a
// ground-truth track edge. It is safe for concurrent use.
func (e *Event) IsTruthEdge(a, b int) bool {
	e.truthOnce.Do(func() {
		e.truthSet = make(map[[2]int]bool, len(e.TruthSrc))
		for k := range e.TruthSrc {
			e.truthSet[[2]int{e.TruthSrc[k], e.TruthDst[k]}] = true
		}
	})
	return e.truthSet[[2]int{a, b}] || e.truthSet[[2]int{b, a}]
}

// Spec describes a synthetic dataset family.
type Spec struct {
	Name           string
	NumEvents      int     // event graphs to generate
	AvgParticles   float64 // Poisson mean of charged particles per event
	NoiseFraction  float64 // extra noise hits as a fraction of track hits
	Layers         []float64
	ZMax           float64 // barrel half-length (m)
	BField         float64 // solenoid field (T)
	PtMin, PtMax   float64 // transverse momentum range (GeV), log-uniform
	EtaMax         float64 // pseudorapidity range ±EtaMax
	SigmaRPhi      float64 // hit smearing in r·φ (m)
	SigmaZ         float64 // hit smearing in z (m)
	HitEfficiency  float64 // probability a crossing is recorded
	VertexFeatures int     // per-hit feature width (Table I)
	EdgeFeatures   int     // per-edge feature width (Table I)
	MLPLayers      int     // hidden-layer count for the pipeline MLPs (Table I)
}

// barrelLayers returns n evenly spaced layer radii between rMin and rMax.
func barrelLayers(n int, rMin, rMax float64) []float64 {
	ls := make([]float64, n)
	for i := range ls {
		ls[i] = rMin + (rMax-rMin)*float64(i)/float64(n-1)
	}
	return ls
}

// CTDLike mirrors the paper's CTD dataset (Table I: 80 graphs, 330.7K avg
// vertices, 6.9M avg edges, 3 MLP layers, 14 vertex features, 8 edge
// features). scale=1 targets paper-size events; the default experiments
// use a much smaller scale.
func CTDLike(scale float64) Spec {
	return Spec{
		Name:           "CTD",
		NumEvents:      80,
		AvgParticles:   33000 * scale, // ≈330K hits at scale 1 with 10 layers
		NoiseFraction:  0.05,
		Layers:         barrelLayers(10, 0.03, 1.0),
		ZMax:           2.0,
		BField:         2.0,
		PtMin:          0.4,
		PtMax:          5.0,
		EtaMax:         2.0,
		SigmaRPhi:      0.0008,
		SigmaZ:         0.0012,
		HitEfficiency:  0.98,
		VertexFeatures: 14,
		EdgeFeatures:   8,
		MLPLayers:      3,
	}
}

// Ex3Like mirrors the paper's Example 3 dataset (Table I: 80 graphs,
// 13.0K avg vertices, 47.8K avg edges, 2 MLP layers, 6 vertex features,
// 2 edge features).
func Ex3Like(scale float64) Spec {
	return Spec{
		Name:           "Ex3",
		NumEvents:      80,
		AvgParticles:   1300 * scale, // ≈13K hits at scale 1 with 10 layers
		NoiseFraction:  0.03,
		Layers:         barrelLayers(10, 0.03, 1.0),
		ZMax:           2.0,
		BField:         2.0,
		PtMin:          0.5,
		PtMax:          5.0,
		EtaMax:         1.5,
		SigmaRPhi:      0.0005,
		SigmaZ:         0.001,
		HitEfficiency:  0.99,
		VertexFeatures: 6,
		EdgeFeatures:   2,
		MLPLayers:      2,
	}
}

// Family is a dataset family's command-line name: Ex3 ("ex3") or CTD
// ("ctd"). *Family is a flag.Value whose Set refuses every other name,
// so a mistyped -dataset fails the flag parse instead of running Ex3.
type Family string

// The two dataset families.
const (
	Ex3 Family = "ex3"
	CTD Family = "ctd"
)

// ParseFamily returns the family named name, or an error for any name
// but "ex3" and "ctd".
func ParseFamily(name string) (Family, error) {
	if f := Family(name); f == Ex3 || f == CTD {
		return f, nil
	}
	return "", fmt.Errorf("unknown dataset family %q (want ex3 or ctd)", name)
}

// Set implements flag.Value.
func (f *Family) Set(name string) error {
	v, err := ParseFamily(name)
	if err == nil {
		*f = v
	}
	return err
}

// String implements flag.Value.
func (f Family) String() string { return string(f) }

// Spec returns the family's spec at scale: CTDLike or Ex3Like. It
// panics on a name ParseFamily would refuse.
func (f Family) Spec(scale float64) Spec {
	switch f {
	case Ex3:
		return Ex3Like(scale)
	case CTD:
		return CTDLike(scale)
	}
	panic(fmt.Sprintf("detector: unknown dataset family %q", string(f)))
}

// poisson draws a Poisson deviate with mean lambda (Knuth for small
// lambda, normal approximation above 30).
func poisson(r *rng.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		n := int(math.Round(lambda + math.Sqrt(lambda)*r.NormFloat64()))
		if n < 0 {
			return 0
		}
		return n
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// GenerateEvent simulates one collision event.
func GenerateEvent(spec Spec, r *rng.Rand) *Event {
	ev := &Event{}
	nParticles := poisson(r, spec.AvgParticles)
	if nParticles < 1 {
		nParticles = 1
	}
	ev.Particles = nParticles

	lastHitOfParticle := make(map[int]int)
	for pid := 0; pid < nParticles; pid++ {
		// Kinematics: log-uniform pT, uniform φ0 and η, ±1 charge,
		// small longitudinal vertex spread.
		pt := spec.PtMin * math.Exp(r.Float64()*math.Log(spec.PtMax/spec.PtMin))
		phi0 := 2 * math.Pi * r.Float64()
		eta := (2*r.Float64() - 1) * spec.EtaMax
		z0 := 0.01 * r.NormFloat64()
		charge := 1.0
		if r.Float64() < 0.5 {
			charge = -1
		}
		// Curvature κ (1/m): radius of curvature R = pT / (0.3 B).
		kappa := charge * 0.3 * spec.BField / pt
		cotTheta := math.Sinh(eta)

		for layer, radius := range spec.Layers {
			// The helix reaches radius ρ only if ρ ≤ 2R.
			arg := math.Abs(kappa) * radius / 2
			if arg >= 1 {
				break
			}
			// Transverse arc length to first crossing of this radius.
			s := 2 / math.Abs(kappa) * math.Asin(arg)
			x := (math.Sin(phi0+kappa*s) - math.Sin(phi0)) / kappa
			y := -(math.Cos(phi0+kappa*s) - math.Cos(phi0)) / kappa
			z := z0 + s*cotTheta
			if math.Abs(z) > spec.ZMax {
				break // exits the barrel
			}
			if r.Float64() > spec.HitEfficiency {
				continue // detector inefficiency: crossing not recorded
			}
			// Measurement smearing in r·φ and z.
			phi := math.Atan2(y, x)
			phi += spec.SigmaRPhi / radius * r.NormFloat64()
			z += spec.SigmaZ * r.NormFloat64()
			h := Hit{
				X:        radius * math.Cos(phi),
				Y:        radius * math.Sin(phi),
				Z:        z,
				R:        radius,
				Phi:      phi,
				Layer:    layer,
				Particle: pid,
			}
			idx := len(ev.Hits)
			ev.Hits = append(ev.Hits, h)
			if prev, ok := lastHitOfParticle[pid]; ok {
				ev.TruthSrc = append(ev.TruthSrc, prev)
				ev.TruthDst = append(ev.TruthDst, idx)
			}
			lastHitOfParticle[pid] = idx
		}
	}

	// Noise hits uniform over layers, φ, and z.
	nNoise := int(float64(len(ev.Hits)) * spec.NoiseFraction)
	for i := 0; i < nNoise; i++ {
		layer := r.Intn(len(spec.Layers))
		radius := spec.Layers[layer]
		phi := 2 * math.Pi * r.Float64()
		z := (2*r.Float64() - 1) * spec.ZMax
		ev.Hits = append(ev.Hits, Hit{
			X:        radius * math.Cos(phi),
			Y:        radius * math.Sin(phi),
			Z:        z,
			R:        radius,
			Phi:      phi,
			Layer:    layer,
			Particle: -1,
		})
	}

	ev.Features = HitFeatures(spec, ev.Hits, r)
	return ev
}

// HitFeatures computes the per-hit feature matrix. The first six columns
// are geometric: r, cosφ, sinφ, z (scaled), pseudorapidity of the hit
// position, and layer fraction. CTD-like specs append synthetic
// cluster-shape columns (charge deposits and widths correlated with the
// incidence geometry plus noise), standing in for the cell features the
// real dataset carries.
func HitFeatures(spec Spec, hits []Hit, r *rng.Rand) *tensor.Dense {
	f := tensor.New(len(hits), spec.VertexFeatures)
	rMax := spec.Layers[len(spec.Layers)-1]
	nLayers := float64(len(spec.Layers))
	for i, h := range hits {
		row := f.Row(i)
		hitEta := etaOf(h.R, h.Z)
		base := []float64{
			h.R / rMax,
			math.Cos(h.Phi),
			math.Sin(h.Phi),
			h.Z / spec.ZMax,
			hitEta / 3.0,
			float64(h.Layer) / nLayers,
		}
		for j := 0; j < len(base) && j < len(row); j++ {
			row[j] = base[j]
		}
		// Synthetic cluster-shape features beyond the geometric six.
		for j := 6; j < len(row); j++ {
			// Correlate with incidence angle so they carry signal, plus noise.
			row[j] = 0.5*math.Tanh(hitEta*float64(j-5)/4) + 0.2*r.NormFloat64()
		}
	}
	return f
}

func etaOf(radius, z float64) float64 {
	if radius == 0 {
		return 0
	}
	theta := math.Atan2(radius, z)
	return -math.Log(math.Tan(theta / 2))
}

// EdgeFeatures computes the per-edge feature matrix for edges (src, dst)
// over the event's hits: Δr, Δφ (wrapped), and for wider specs Δz, Δη,
// 3D distance, mean radius, φ-slope, and a curvature proxy. Columns past
// the eighth are zero.
func EdgeFeatures(spec Spec, ev *Event, src, dst []int) *tensor.Dense {
	return EdgeFeaturesWith(nil, spec, ev, src, dst)
}

// EdgeFeaturesWith is EdgeFeatures with the feature matrix borrowed from
// the arena's workspace pools: valid only until the arena resets past
// it. A nil arena falls back to the heap. Only the spec.EdgeFeatures
// columns the matrix keeps are computed.
func EdgeFeaturesWith(a *workspace.Arena, spec Spec, ev *Event, src, dst []int) *tensor.Dense {
	f := tensor.NewFrom(a, len(src), spec.EdgeFeatures)
	cols := min(spec.EdgeFeatures, 8)
	rMax := spec.Layers[len(spec.Layers)-1]
	for k := range src {
		a, b := ev.Hits[src[k]], ev.Hits[dst[k]]
		row := f.Row(k)
		// One dispatch per edge on the width, then the kept columns from
		// the last down.
		switch cols {
		case 8:
			row[7] = curvatureProxy(a, b)
			fallthrough
		case 7:
			row[6] = phiSlope(a, b)
			fallthrough
		case 6:
			row[5] = (a.R + b.R) / (2 * rMax)
			fallthrough
		case 5:
			row[4] = dist3(a, b) / rMax
			fallthrough
		case 4:
			row[3] = (etaOf(b.R, b.Z) - etaOf(a.R, a.Z)) / 3.0
			fallthrough
		case 3:
			row[2] = (b.Z - a.Z) / spec.ZMax
			fallthrough
		case 2:
			row[1] = wrapAngle(b.Phi - a.Phi)
			fallthrough
		case 1:
			row[0] = (b.R - a.R) / rMax
		}
	}
	return f
}

func wrapAngle(d float64) float64 {
	for d > math.Pi {
		d -= 2 * math.Pi
	}
	for d < -math.Pi {
		d += 2 * math.Pi
	}
	return d
}

func dist3(a, b Hit) float64 {
	dx, dy, dz := b.X-a.X, b.Y-a.Y, b.Z-a.Z
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

// phiSlope is Δφ/Δr, a standard hand-engineered tracking feature.
func phiSlope(a, b Hit) float64 {
	dr := b.R - a.R
	if math.Abs(dr) < 1e-9 {
		return 0
	}
	return wrapAngle(b.Phi-a.Phi) / dr * 0.1
}

// curvatureProxy approximates the transverse curvature implied by the
// doublet under a beamline origin constraint.
func curvatureProxy(a, b Hit) float64 {
	d := math.Hypot(b.X-a.X, b.Y-a.Y)
	if d < 1e-9 {
		return 0
	}
	cross := a.X*b.Y - a.Y*b.X
	return cross / (d * math.Max(a.R, 1e-6) * math.Max(b.R, 1e-6)) * 0.1
}

// Dataset is a generated set of events split into train/validation/test.
type Dataset struct {
	Spec   Spec
	Events []*Event
}

// Generate produces spec.NumEvents events deterministically from seed.
func Generate(spec Spec, seed uint64) *Dataset {
	r := rng.New(seed)
	ds := &Dataset{Spec: spec, Events: make([]*Event, spec.NumEvents)}
	for i := range ds.Events {
		ds.Events[i] = GenerateEvent(spec, r.Split())
	}
	return ds
}

// Split returns the paper's 80/10/10-style split by proportion (train,
// val, test sum to ≤ 1; remainders go to test).
func (d *Dataset) Split(trainFrac, valFrac float64) (train, val, test []*Event) {
	n := len(d.Events)
	nTrain := int(float64(n) * trainFrac)
	nVal := int(float64(n) * valFrac)
	if nTrain+nVal > n {
		nVal = n - nTrain
	}
	return d.Events[:nTrain], d.Events[nTrain : nTrain+nVal], d.Events[nTrain+nVal:]
}

// Stats summarizes a dataset for Table I.
type Stats struct {
	Name                       string
	Graphs                     int
	AvgVertices, AvgTruthEdges float64
	MLPLayers                  int
	VertexFeatures             int
	EdgeFeatures               int
}

// ComputeStats measures Table I quantities over the dataset.
func (d *Dataset) ComputeStats() Stats {
	s := Stats{
		Name:           d.Spec.Name,
		Graphs:         len(d.Events),
		MLPLayers:      d.Spec.MLPLayers,
		VertexFeatures: d.Spec.VertexFeatures,
		EdgeFeatures:   d.Spec.EdgeFeatures,
	}
	for _, ev := range d.Events {
		s.AvgVertices += float64(ev.NumHits())
		s.AvgTruthEdges += float64(len(ev.TruthSrc))
	}
	if len(d.Events) > 0 {
		s.AvgVertices /= float64(len(d.Events))
		s.AvgTruthEdges /= float64(len(d.Events))
	}
	return s
}
