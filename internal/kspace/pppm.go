package kspace

import (
	"math"
	"time"

	"gomd/internal/atom"
	"gomd/internal/box"
	"gomd/internal/neighbor"
	"gomd/internal/obs"
	"gomd/internal/par"
	"gomd/internal/vec"
)

// PPPM is the particle-particle particle-mesh solver (kspace_style pppm):
// charges are spread onto a mesh with order-P cardinal B-splines, the
// mesh is convolved with the (Gaussian-screened Coulomb) Green's function
// in Fourier space, and per-particle forces are interpolated back from
// the ik-differentiated field — the same pipeline whose GPU kernels
// (particle_map, make_rho, interp) the paper's Figure 8 breaks down.
//
// The mesh size is derived from the requested relative force accuracy
// through the Deserno-Holm error estimate, so sweeping Accuracy from
// 1e-4 to 1e-7 grows the FFT work exactly as in the paper's §7 study.
type PPPM struct {
	Accuracy float64
	RCut     float64
	Order    int

	g          float64
	share      float64
	qqr2e      float64
	q2sum      float64
	natoms     int
	nx, ny, nz int
	fft        *FFT3D

	// scratch grids: charges are spread into the real array wreal (the
	// one a mesh reducer sums across ranks) and copied into rho for the
	// forward transform; the three inverse transforms leave the field in
	// the imaginary parts of fkx/fky/fkz, which field holds interleaved
	// [Ex, Ey, Ez] per mesh point for interp.
	rho   []complex128
	fkx   []complex128
	fky   []complex128
	fkz   []complex128
	wreal []float64
	field []float64

	// |W(k)|² per 1-D mesh index and dimension; a function of the mesh
	// size and Order only, so Setup owns it.
	denX, denY, denZ []float64

	// Cached per-atom B-spline stencils, filled by the particle_map
	// stage each Compute and shared by make_rho and interp (24 weights,
	// 24 wrapped indices, and 3 per-dimension counts per atom).
	mapWts []float64
	mapIdx []int32
	mapCnt []uint8

	// per-worker counter slots and per-plane Poisson partials
	planeE, planeV            []float64
	mapOpsW, spreadW, interpW []int64
	gridOpsW                  []int64

	// span, when non-nil, receives one kernel span per pipeline stage
	// (make_rho, FFTs, Poisson multiply, interp) — the mesh-side
	// counterpart of the paper's Figure 8 kernel breakdown.
	span *obs.Rank

	// pool, when non-nil, parallelizes particle_map, make_rho (z-slab
	// grid ownership), the Poisson multiply (per-plane), and interp
	// (per-atom) across intra-rank workers; the FFTs stay serial. All
	// stages produce bit-identical grids and forces for any worker
	// count (see DESIGN.md "Intra-rank threading").
	pool *par.Pool
}

// SetSpan implements obs.SpanCarrier.
func (p *PPPM) SetSpan(r *obs.Rank) { p.span = r }

// SetPool implements par.Carrier.
func (p *PPPM) SetPool(pl *par.Pool) { p.pool = pl }

// NewPPPM returns a PPPM solver with assignment order 5 (the LAMMPS
// default used by the rhodopsin benchmark).
func NewPPPM(accuracy, rcut float64) *PPPM {
	return &PPPM{Accuracy: accuracy, RCut: rcut, Order: 5}
}

// Name implements Solver.
func (p *PPPM) Name() string { return "pppm" }

// GEwald implements Solver.
func (p *PPPM) GEwald() float64 { return p.g }

// SetShare implements Solver.
func (p *PPPM) SetShare(f float64) { p.share = f }

// Mesh returns the mesh dimensions chosen by Setup.
func (p *PPPM) Mesh() (nx, ny, nz int) { return p.nx, p.ny, p.nz }

// Setup implements Solver: chooses the splitting parameter and the
// smallest FFT-factorable mesh meeting the accuracy target per dimension
// (MeshFor). A mesh over neighbor.MaxBins points is refused with a
// *GridError before anything is allocated.
func (p *PPPM) Setup(bx box.Box, natoms int, q2sum, qqr2e float64) error {
	l := bx.Lengths()
	nx, ny, nz, err := MeshFor(p.Accuracy, p.RCut, l.X, l.Y, l.Z, natoms, q2sum, qqr2e, p.Order)
	if err != nil {
		return err
	}
	if cells := float64(nx) * float64(ny) * float64(nz); cells > neighbor.MaxBins {
		return &GridError{Solver: "pppm", Accuracy: p.Accuracy, Order: p.Order, Cells: cells}
	}
	p.qqr2e = qqr2e
	p.q2sum = q2sum
	p.natoms = natoms
	p.g = SplitParameter(p.Accuracy, p.RCut)
	if p.fft == nil || nx != p.nx || ny != p.ny || nz != p.nz {
		p.nx, p.ny, p.nz = nx, ny, nz
		p.fft = NewFFT3D(nx, ny, nz)
		sz := nx * ny * nz
		p.rho = make([]complex128, sz)
		p.fkx = make([]complex128, sz)
		p.fky = make([]complex128, sz)
		p.fkz = make([]complex128, sz)
		p.wreal = make([]float64, sz)
		p.field = make([]float64, 3*sz)
	}
	p.denX = splineDenominator(nx, p.Order)
	p.denY = splineDenominator(ny, p.Order)
	p.denZ = splineDenominator(nz, p.Order)
	return nil
}

// Compute implements Solver.
func (p *PPPM) Compute(st *atom.Store, bx box.Box, reduce func([]float64)) Result {
	var res Result
	if p.fft == nil {
		panic("kspace: PPPM Compute before Setup")
	}
	nx, ny, nz := p.nx, p.ny, p.nz
	sz := nx * ny * nz
	res.GridPoints = int64(sz)
	l := bx.Lengths()
	lo := bx.Lo
	n := st.N
	order := p.Order
	pool := p.pool
	W := pool.Workers()

	wr := p.wreal
	clear(wr)

	// kernel marks the end of one pipeline stage on the span timeline
	// and starts the next; tObs stays zero (and kernel free) when
	// tracing is off.
	var tObs time.Time
	if p.span != nil {
		tObs = time.Now()
	}
	kernel := func(name string) {
		if p.span != nil {
			now := time.Now()
			p.span.Span(obs.CatKernel, name, tObs, now.Sub(tObs))
			tObs = now
		}
	}

	// particle_map: compute and cache each charged atom's B-spline
	// stencil (weights, wrapped mesh indices, per-dimension counts).
	// The cache is shared by make_rho and interp, which both previously
	// recomputed it; values are identical bit for bit.
	p.mapWts = growK(p.mapWts, n*24)
	p.mapIdx = growK(p.mapIdx, n*24)
	p.mapCnt = growK(p.mapCnt, n*3)
	p.mapOpsW = growK(p.mapOpsW, W)
	clear(p.mapOpsW)
	pool.Run("pppm_map", n, func(w, alo, ahi int) {
		var wx, wy, wz [8]float64
		var ix, iy, iz [8]int
		var ops int64
		for i := alo; i < ahi; i++ {
			if st.Charge[i] == 0 {
				p.mapCnt[i*3] = 0
				p.mapCnt[i*3+1] = 0
				p.mapCnt[i*3+2] = 0
				continue
			}
			ops++
			pos := st.Pos[i]
			ux := (pos.X - lo.X) / l.X * float64(nx)
			uy := (pos.Y - lo.Y) / l.Y * float64(ny)
			uz := (pos.Z - lo.Z) / l.Z * float64(nz)
			kx := splineWeights(ux, nx, order, &wx, &ix)
			ky := splineWeights(uy, ny, order, &wy, &iy)
			kz := splineWeights(uz, nz, order, &wz, &iz)
			p.mapCnt[i*3], p.mapCnt[i*3+1], p.mapCnt[i*3+2] = uint8(kx), uint8(ky), uint8(kz)
			base := i * 24
			for t := 0; t < kx; t++ {
				p.mapWts[base+t] = wx[t]
				p.mapIdx[base+t] = int32(ix[t])
			}
			for t := 0; t < ky; t++ {
				p.mapWts[base+8+t] = wy[t]
				p.mapIdx[base+8+t] = int32(iy[t])
			}
			for t := 0; t < kz; t++ {
				p.mapWts[base+16+t] = wz[t]
				p.mapIdx[base+16+t] = int32(iz[t])
			}
		}
		p.mapOpsW[w] = ops
	})
	for _, ops := range p.mapOpsW {
		res.MapOps += ops
	}

	// make_rho: spread charges onto the mesh. Workers own disjoint
	// z-plane slabs and each scans every atom, applying only the
	// stencil planes inside its slab — so each mesh cell accumulates
	// its contributions in ascending atom order for ANY worker count,
	// which keeps the grid (and everything downstream) bit-identical
	// across worker counts.
	p.spreadW = growK(p.spreadW, W)
	clear(p.spreadW)
	pool.Run("pppm_make_rho", nz, func(w, zlo, zhi int) {
		var spread int64
		for i := 0; i < n; i++ {
			q := st.Charge[i]
			if q == 0 {
				continue
			}
			wts, idx := p.mapWts[i*24:i*24+24], p.mapIdx[i*24:i*24+24]
			kx := int(p.mapCnt[i*3])
			ky := int(p.mapCnt[i*3+1])
			kz := int(p.mapCnt[i*3+2])
			wx, ix := wts[:kx], idx[:kx]
			for a := 0; a < kz; a++ {
				z := int(idx[16+a])
				if z < zlo || z >= zhi {
					continue
				}
				base1 := z * ny
				qz := q * wts[16+a]
				for b := 0; b < ky; b++ {
					base2 := (base1 + int(idx[8+b])) * nx
					qyz := qz * wts[8+b]
					for c, wc := range wx {
						wr[base2+int(ix[c])] += qyz * wc
					}
				}
				spread += int64(kx * ky)
			}
		}
		p.spreadW[w] = spread
	})
	for _, s := range p.spreadW {
		res.SpreadOps += s
	}
	kernel("pppm_make_rho")

	// Decomposed runs hold a replicated mesh: sum contributions across
	// ranks before the transform. The backend's reducer runs a
	// reduce-scatter + allgather butterfly, so per-rank traffic scales
	// as ~2·mesh·8·(P-1)/P bytes rather than the whole mesh per peer.
	if reduce != nil {
		reduce(wr)
		kernel("pppm_mesh_reduce")
	}

	for i, v := range wr {
		p.rho[i] = complex(v, 0)
	}

	p.fft.Butterflies = 0
	p.fft.Forward(p.rho)
	kernel("pppm_fft_forward")

	// Green's function multiply + ik differentiation, with B-spline
	// deconvolution (one W factor for spreading, one for interpolation).
	vol := bx.Volume()
	share := p.share
	if share == 0 {
		share = 1
	}
	cE := 2 * math.Pi * p.qqr2e / vol
	g4 := 4 * p.g * p.g
	kunit := [3]float64{2 * math.Pi / l.X, 2 * math.Pi / l.Y, 2 * math.Pi / l.Z}
	denX, denY, denZ := p.denX, p.denY, p.denZ
	// Workers own disjoint z-plane ranges; energy/virial accumulate into
	// per-plane partials folded serially in plane order, so the totals do
	// not depend on the worker count.
	p.planeE = growK(p.planeE, nz)
	p.planeV = growK(p.planeV, nz)
	p.gridOpsW = growK(p.gridOpsW, W)
	clear(p.planeE)
	clear(p.planeV)
	clear(p.gridOpsW)
	pool.Run("pppm_poisson", nz, func(w, zlo, zhi int) {
		var gridOps int64
		for z := zlo; z < zhi; z++ {
			mz := wrapFreq(z, nz)
			kz := float64(mz) * kunit[2]
			var planeE, planeV float64
			for y := 0; y < ny; y++ {
				my := wrapFreq(y, ny)
				ky := float64(my) * kunit[1]
				base := nx * (y + ny*z)
				for x := 0; x < nx; x++ {
					idx := base + x
					mx := wrapFreq(x, nx)
					kx := float64(mx) * kunit[0]
					k2 := kx*kx + ky*ky + kz*kz
					if k2 == 0 {
						p.rho[idx] = 0
						p.fkx[idx], p.fky[idx], p.fkz[idx] = 0, 0, 0
						continue
					}
					gridOps++
					w2 := denX[x] * denY[y] * denZ[z] // |W(k)|^2
					a := math.Exp(-k2/g4) / k2 / w2
					s := p.rho[idx]
					s2 := real(s)*real(s) + imag(s)*imag(s)
					t := cE * a * s2 * share
					planeE += t
					planeV += t * (1 - 2*k2/g4)
					// Field components H_c = A k_c Sm(k)/|W|^2; after the
					// inverse transform and W-weighted interpolation this
					// yields (1/Ngrid) sum_k A k_c S*(k) e^{ik r}, whose
					// imaginary part drives the force.
					h := s * complex(a, 0)
					p.fkx[idx] = h * complex(kx, 0)
					p.fky[idx] = h * complex(ky, 0)
					p.fkz[idx] = h * complex(kz, 0)
				}
			}
			p.planeE[z] = planeE
			p.planeV[z] = planeV
		}
		p.gridOpsW[w] = gridOps
	})
	for z := 0; z < nz; z++ {
		res.Energy += p.planeE[z]
		res.Virial += p.planeV[z]
	}
	for _, g := range p.gridOpsW {
		res.GridOps += g
	}

	kernel("pppm_poisson")
	p.fft.Inverse(p.fkx)
	p.fft.Inverse(p.fky)
	p.fft.Inverse(p.fkz)
	res.FFTOps = p.fft.Butterflies
	// The field is the imaginary part of each transform: interleave the
	// three so a stencil point is one cache line, not three, and interp
	// multiplies reals.
	field := p.field
	for i := range p.fkx {
		field[3*i] = imag(p.fkx[i])
		field[3*i+1] = imag(p.fky[i])
		field[3*i+2] = imag(p.fkz[i])
	}
	kernel("pppm_fft_inverse")

	// interp: gather per-particle field with the cached stencils (each
	// worker owns a contiguous atom range and writes only its own
	// forces). F_i = 2 cE q_i Ngrid Im(sum) per the mesh normalization.
	fpre := 2 * cE * float64(sz)
	p.interpW = growK(p.interpW, W)
	clear(p.interpW)
	pool.Run("pppm_interp", n, func(w, alo, ahi int) {
		var ops int64
		for i := alo; i < ahi; i++ {
			q := st.Charge[i]
			if q == 0 {
				continue
			}
			wts, idx := p.mapWts[i*24:i*24+24], p.mapIdx[i*24:i*24+24]
			kx := int(p.mapCnt[i*3])
			ky := int(p.mapCnt[i*3+1])
			kz := int(p.mapCnt[i*3+2])
			wx, ix := wts[:kx], idx[:kx]
			var ex, ey, ez float64
			for a := 0; a < kz; a++ {
				base1 := int(idx[16+a]) * ny
				for b := 0; b < ky; b++ {
					base2 := (base1 + int(idx[8+b])) * nx
					wyz := wts[16+a] * wts[8+b]
					for c, wc := range wx {
						w := wyz * wc
						e := field[3*(base2+int(ix[c])):]
						ex += w * e[0]
						ey += w * e[1]
						ez += w * e[2]
					}
				}
			}
			ops += int64(kx * ky * kz)
			f := vec.New(ex, ey, ez).Scale(fpre * q)
			st.Force[i] = st.Force[i].Add(f)
		}
		p.interpW[w] = ops
	})
	for _, ops := range p.interpW {
		res.InterpOps += ops
	}
	kernel("pppm_interp")

	// Self-energy correction.
	var q2own float64
	for i := 0; i < n; i++ {
		q2own += st.Charge[i] * st.Charge[i]
	}
	res.Energy -= p.qqr2e * p.g / math.Sqrt(math.Pi) * q2own
	return res
}

// growK resizes s to length n reusing capacity; contents are undefined
// until written.
func growK[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// wrapFreq maps a grid index to its signed frequency.
func wrapFreq(i, n int) int {
	if i > n/2 {
		return i - n
	}
	return i
}

// splineDenominator returns |W(k)|^2 per 1D index for an order-P
// cardinal B-spline on an n-point mesh: W(k) = sinc(pi m / n)^P.
func splineDenominator(n, order int) []float64 {
	den := make([]float64, n)
	for i := 0; i < n; i++ {
		m := wrapFreq(i, n)
		if m == 0 {
			den[i] = 1
			continue
		}
		x := math.Pi * float64(m) / float64(n)
		s := math.Sin(x) / x
		w := math.Pow(s, float64(order))
		den[i] = w * w
		if den[i] < 1e-12 {
			den[i] = 1e-12
		}
	}
	return den
}
