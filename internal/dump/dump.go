// Package dump implements trajectory and data-file I/O: XYZ and
// LAMMPS-dump-format trajectory writers (the "dump files" half of the
// paper's Output task) and the LAMMPS data-file reader/writer. Restart
// snapshots are internal/ckpt's job.
package dump

import (
	"bufio"
	"fmt"
	"io"

	"gomd/internal/atom"
	"gomd/internal/box"
)

// WriteXYZ writes one frame in extended-XYZ format: a count line, a
// comment line with the step and box, then "type x y z" rows for owned
// atoms.
func WriteXYZ(w io.Writer, st *atom.Store, bx box.Box, step int64) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%d\n", st.N)
	l := bx.Lengths()
	fmt.Fprintf(bw, "step=%d box=%g,%g,%g\n", step, l.X, l.Y, l.Z)
	for i := 0; i < st.N; i++ {
		p := st.Pos[i]
		fmt.Fprintf(bw, "%d %.8g %.8g %.8g\n", st.Type[i], p.X, p.Y, p.Z)
	}
	return bw.Flush()
}

// WriteLAMMPSDump writes one frame in the LAMMPS text dump format
// (ITEM: TIMESTEP / NUMBER OF ATOMS / BOX BOUNDS / ATOMS id type x y z
// vx vy vz), which the ecosystem's visualization tools consume.
func WriteLAMMPSDump(w io.Writer, st *atom.Store, bx box.Box, step int64) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "ITEM: TIMESTEP\n%d\n", step)
	fmt.Fprintf(bw, "ITEM: NUMBER OF ATOMS\n%d\n", st.N)
	bounds := "pp pp pp"
	if !bx.Periodic[2] {
		bounds = "pp pp ff"
	}
	fmt.Fprintf(bw, "ITEM: BOX BOUNDS %s\n", bounds)
	fmt.Fprintf(bw, "%g %g\n%g %g\n%g %g\n", bx.Lo.X, bx.Hi.X, bx.Lo.Y, bx.Hi.Y, bx.Lo.Z, bx.Hi.Z)
	fmt.Fprintln(bw, "ITEM: ATOMS id type x y z vx vy vz")
	for i := 0; i < st.N; i++ {
		p, v := st.Pos[i], st.Vel[i]
		fmt.Fprintf(bw, "%d %d %.8g %.8g %.8g %.8g %.8g %.8g\n",
			st.Tag[i], st.Type[i], p.X, p.Y, p.Z, v.X, v.Y, v.Z)
	}
	return bw.Flush()
}
