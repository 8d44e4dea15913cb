// Package kspace implements the long-range electrostatics of the
// Rhodopsin benchmark: an Ewald summation reference solver and the
// Particle-Particle Particle-Mesh (PPPM) method with B-spline charge
// assignment, ik-differentiation, and a Deserno-Holm-style error
// estimator that derives the mesh size from the requested relative force
// accuracy — the knob the paper sweeps in §7.
//
// The 3D FFT underneath is a pure-Go mixed-radix (2/3/4/5) Stockham
// transform, so PPPM meshes can use the same 2^a·3^b·5^c sizes LAMMPS
// favors instead of rounding up to powers of two.
package kspace

import (
	"math"
	"math/cmplx"
)

// FFT is a reusable complex FFT plan of length N, where N factors into
// 2s, 3s, and 5s. A transform is a sequence of Stockham autosort passes,
// one hard-coded butterfly per radix, ping-ponging between the caller's
// array and one scratch buffer: no bit reversal, no copy-back per level,
// natural order in and out.
type FFT struct {
	N int
	// factors is the prime factorisation (5s, 3s, 2s): the depth the
	// butterfly count is defined by (N·len(factors) per transform — a
	// performance-model input, so it does not follow the radices run).
	factors []int
	// radices are the passes run: factors with pairs of 2s merged into
	// radix-4 butterflies.
	radices []int
	// twiddle[k] = e^{-2πi k/N} for k < N; twiddleInv its conjugate.
	twiddle, twiddleInv []complex128
	scratch             []complex128
}

// FactorableFFT reports whether n is a valid FFT length (2^a 3^b 5^c,
// n >= 1).
func FactorableFFT(n int) bool {
	if n < 1 {
		return false
	}
	for _, p := range []int{2, 3, 5} {
		for n%p == 0 {
			n /= p
		}
	}
	return n == 1
}

// NiceFFTSize returns the smallest valid FFT length >= n.
func NiceFFTSize(n int) int {
	for !FactorableFFT(n) {
		n++
	}
	return n
}

// NewFFT builds a plan for length n (must satisfy FactorableFFT).
func NewFFT(n int) *FFT {
	if !FactorableFFT(n) {
		panic("kspace: FFT length must factor into 2, 3, 5")
	}
	f := &FFT{N: n}
	m := n
	for _, p := range []int{5, 3, 2} {
		for m%p == 0 {
			f.factors = append(f.factors, p)
			m /= p
		}
	}
	for i := 0; i < len(f.factors); i++ {
		r := f.factors[i]
		if r == 2 && i+1 < len(f.factors) && f.factors[i+1] == 2 {
			r = 4
			i++
		}
		f.radices = append(f.radices, r)
	}
	f.twiddle = make([]complex128, n)
	f.twiddleInv = make([]complex128, n)
	for k := range f.twiddle {
		ang := -2 * math.Pi * float64(k) / float64(n)
		f.twiddle[k] = cmplx.Exp(complex(0, ang))
		f.twiddleInv[k] = cmplx.Conj(f.twiddle[k])
	}
	f.scratch = make([]complex128, n)
	return f
}

// Forward transforms a in place (DFT with e^{-2πi} kernel).
func (f *FFT) Forward(a []complex128) { f.run(a, f.scratch, 1, false) }

// Inverse transforms a in place, including the 1/N normalization.
func (f *FFT) Inverse(a []complex128) { f.run(a, f.scratch, 1, true) }

// butterflies is the work one length-N transform is counted as.
func (f *FFT) butterflies() int64 { return int64(f.N * len(f.factors)) }

// run transforms, in place, the batch sequences of length N interleaved
// in a — element j of sequence q at a[q+batch·j] — with tmp (same length
// as a) as the other half of the ping-pong. batch = 1 is a plain
// contiguous transform; batch = nx transforms every y line of an
// x-fastest plane at once, with unit-stride inner loops and one twiddle
// lookup per batch.
//
// Each pass is one decimation-in-frequency Stockham stage: with n the
// current sub-length, p the radix, m = n/p and s the interleave (batch ×
// the radices already done),
//
//	dst[q + s(p·k + r)] = ω_n^{k r} · Σ_j ω_p^{r j} · src[q + s(k + m·j)]
//
// for k < m, r < p, q < s. The twiddle index (N/n)·k·r is below N for
// every k and r, so the table is read without a modulo, and the k = 0
// group — the whole of the last pass — multiplies by nothing.
func (f *FFT) run(a, tmp []complex128, batch int, inverse bool) {
	if len(a) != f.N*batch {
		panic("kspace: FFT length mismatch")
	}
	tw, sign := f.twiddle, 1.0
	if inverse {
		tw, sign = f.twiddleInv, -1.0
	}
	src, dst := a, tmp
	n, s := f.N, batch
	for _, p := range f.radices {
		m := n / p
		step := f.N / n
		for k := 0; k < m; k++ {
			in, out := src[s*k:], dst[s*p*k:]
			switch p {
			case 2:
				butterfly2(out, in, s, s*m)
			case 3:
				butterfly3(out, in, s, s*m, sign)
			case 4:
				butterfly4(out, in, s, s*m, sign)
			case 5:
				butterfly5(out, in, s, s*m, sign)
			}
			if k == 0 {
				continue // unit twiddles
			}
			for r := 1; r < p; r++ {
				w := tw[step*k*r]
				row := out[s*r : s*r+s]
				for q := range row {
					row[q] *= w
				}
			}
		}
		n, s = m, s*p
		src, dst = dst, src
	}
	// The result is in src: a after an even number of passes, tmp after
	// an odd one. The inverse's 1/N rides on the copy home.
	switch {
	case inverse:
		inv := 1 / float64(f.N)
		for i, v := range src {
			a[i] = complex(real(v)*inv, imag(v)*inv)
		}
	case len(f.radices)%2 == 1:
		copy(a, src)
	}
}

// The roots of unity the radix-3 and radix-5 butterflies are written in:
// e^{∓2πi/3} = -1/2 ∓ i·sin60, e^{∓2πi/5} = cos72 ∓ i·sin72 and
// e^{∓4πi/5} = cos144 ∓ i·sin144.
const (
	sin60  = 0.86602540378443864676372317075293618347
	cos72  = 0.30901699437494742410229341718281905886
	sin72  = 0.95105651629515357211643933337938214340
	cos144 = -0.80901699437494742410229341718281905886
	sin144 = 0.58778525229247312916870595463907276859
)

// butterfly2..5 apply one p-point DFT to each of s interleaved columns:
// input j of column q is in[q+j·stride], output r is out[q+r·s]. sign is
// +1 for the forward kernel e^{-2πi/p} and -1 for its conjugate.

func butterfly2(out, in []complex128, s, stride int) {
	x0, x1 := in[:s], in[stride:stride+s]
	y0, y1 := out[:s], out[s:2*s]
	for q := range x0 {
		a, b := x0[q], x1[q]
		y0[q] = a + b
		y1[q] = a - b
	}
}

func butterfly3(out, in []complex128, s, stride int, sign float64) {
	x0, x1, x2 := in[:s], in[stride:stride+s], in[2*stride:2*stride+s]
	y0, y1, y2 := out[:s], out[s:2*s], out[2*s:3*s]
	s1 := sign * sin60
	for q := range x0 {
		a := x0[q]
		sum, dif := x1[q]+x2[q], x1[q]-x2[q]
		mid := complex(real(a)-0.5*real(sum), imag(a)-0.5*imag(sum))
		rot := complex(s1*imag(dif), -s1*real(dif))
		y0[q] = a + sum
		y1[q] = mid + rot
		y2[q] = mid - rot
	}
}

func butterfly4(out, in []complex128, s, stride int, sign float64) {
	x0, x1, x2, x3 := in[:s], in[stride:stride+s], in[2*stride:2*stride+s], in[3*stride:3*stride+s]
	y0, y1, y2, y3 := out[:s], out[s:2*s], out[2*s:3*s], out[3*s:4*s]
	for q := range x0 {
		s02, d02 := x0[q]+x2[q], x0[q]-x2[q]
		s13, d13 := x1[q]+x3[q], x1[q]-x3[q]
		rot := complex(sign*imag(d13), -sign*real(d13)) // ∓i·d13
		y0[q] = s02 + s13
		y1[q] = d02 + rot
		y2[q] = s02 - s13
		y3[q] = d02 - rot
	}
}

func butterfly5(out, in []complex128, s, stride int, sign float64) {
	x0, x1, x2 := in[:s], in[stride:stride+s], in[2*stride:2*stride+s]
	x3, x4 := in[3*stride:3*stride+s], in[4*stride:4*stride+s]
	y0, y1, y2, y3, y4 := out[:s], out[s:2*s], out[2*s:3*s], out[3*s:4*s], out[4*s:5*s]
	const c1, c2 = cos72, cos144
	s1, s2 := sign*sin72, sign*sin144
	for q := range x0 {
		a := x0[q]
		s14, d14 := x1[q]+x4[q], x1[q]-x4[q]
		s23, d23 := x2[q]+x3[q], x2[q]-x3[q]
		m1 := complex(real(a)+c1*real(s14)+c2*real(s23), imag(a)+c1*imag(s14)+c2*imag(s23))
		m2 := complex(real(a)+c2*real(s14)+c1*real(s23), imag(a)+c2*imag(s14)+c1*imag(s23))
		r1 := complex(s1*imag(d14)+s2*imag(d23), -s1*real(d14)-s2*real(d23))
		r2 := complex(s2*imag(d14)-s1*imag(d23), -s2*real(d14)+s1*real(d23))
		y0[q] = a + s14 + s23
		y1[q] = m1 + r1
		y2[q] = m2 + r2
		y3[q] = m2 - r2
		y4[q] = m1 - r1
	}
}

// FFT3D applies 1D transforms along each axis of an nx × ny × nz grid
// stored x-fastest (idx = x + nx*(y + ny*z)).
type FFT3D struct {
	Nx, Ny, Nz int
	fx, fy, fz *FFT
	scratch    []complex128
	// Butterflies counts complex butterfly operations performed, the FFT
	// work measure of the performance model.
	Butterflies int64
}

// NewFFT3D builds a 3D plan; all dimensions must satisfy FactorableFFT.
func NewFFT3D(nx, ny, nz int) *FFT3D {
	return &FFT3D{
		Nx: nx, Ny: ny, Nz: nz,
		fx: NewFFT(nx), fy: NewFFT(ny), fz: NewFFT(nz),
		scratch: make([]complex128, nx*ny*nz),
	}
}

// Len returns the total grid point count.
func (f *FFT3D) Len() int { return f.Nx * f.Ny * f.Nz }

// Forward transforms grid in place.
func (f *FFT3D) Forward(grid []complex128) { f.apply(grid, false) }

// Inverse transforms grid in place with normalization.
func (f *FFT3D) Inverse(grid []complex128) { f.apply(grid, true) }

func (f *FFT3D) apply(grid []complex128, inverse bool) {
	if len(grid) != f.Len() {
		panic("kspace: FFT3D grid size mismatch")
	}
	nx, ny, nz := f.Nx, f.Ny, f.Nz
	plane := nx * ny
	// X lines are contiguous: one plain transform each.
	for off := 0; off < len(grid); off += nx {
		f.fx.run(grid[off:off+nx], f.scratch[:nx], 1, inverse)
	}
	// The y lines of one z plane are nx sequences interleaved at stride
	// nx, and the z lines of the grid nx·ny sequences at stride nx·ny:
	// batched transforms, no gather or scatter.
	for off := 0; off < len(grid); off += plane {
		f.fy.run(grid[off:off+plane], f.scratch[:plane], nx, inverse)
	}
	f.fz.run(grid, f.scratch, plane, inverse)
	f.Butterflies += int64(ny*nz)*f.fx.butterflies() +
		int64(nx*nz)*f.fy.butterflies() + int64(plane)*f.fz.butterflies()
}
