// Sharded checkpoints for multi-process worlds. The monolithic Writer
// assumes every rank's snapshot can reach one in-process assembler;
// when ranks span OS processes that assumption breaks, so each process
// instead writes a GMCS shard covering only its local ranks, and a
// two-phase commit marks the step's shard set complete: every process
// votes "shard durable" to rank 0 over reserved checkpoint tags, and
// rank 0 then fsyncs a KCMF manifest recording the generation's
// rank→shard map and per-shard whole-file CRCs. The manifest's
// presence alone marks a generation complete — a crash anywhere before
// the manifest rename leaves a partial generation that restores simply
// ignore, and a crash after it leaves a complete one. Shards are
// keyed by rank, not by process, so a re-rendezvoused world may assign
// ranks to different processes and still restore: each process loads
// whichever shards cover its newly-local ranks.
package ckpt

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"gomd/internal/box"
	"gomd/internal/core"
	"gomd/internal/mpi"
)

// Shard and manifest format constants. Shards reuse the GMCK v2
// integrity machinery (section CRCs + KCMG footer) under their own
// magic; the manifest is a tiny v2-style file of its own.
const (
	shardMagic    = 0x53434d47 // "GMCS": one process' ranks for one step
	manifestMagic = 0x464d434b // "KCMF": commit record of a generation

	// ManifestName is the commit record's filename inside a generation
	// directory; its presence marks the generation complete.
	ManifestName = "manifest.kcmf"
)

// Shard is one process' share of a sharded checkpoint: the Rank
// snapshots of its local ranks plus the global header every restore
// needs regardless of which shard it reads first.
type Shard struct {
	Step      int64
	WorldSize int
	Ranks     []int // ascending rank ids covered; PerRank is parallel
	Grid      [3]int
	Box       box.Box
	SetupBox  box.Box
	Q2Setup   float64
	PerRank   []Rank
}

// Vote is a process' phase-1 commit message: "my shard for Step is
// durable on disk". Rank 0 collects one per rank (processes with
// several local ranks send duplicates; dedup is by shard name),
// verifies the set covers the world, and only then commits the
// manifest.
type Vote struct {
	Step  int64
	Shard string // shard filename within the generation directory: shardName(Ranks[0])
	CRC   uint32 // whole-file CRC32 (IEEE) of the shard as written
	Ranks []int32
	Atoms int64
}

// ibits stores an integer as its bits, the way every integer crosses
// the mpi runtime's float64 vectors.
func ibits(v int64) float64 { return math.Float64frombits(uint64(v)) }

// packVote renders v as the vector the commit sends: step, CRC, atom
// count, then the ranks, each stored as its bits. The shard name does
// not travel: rank 0 derives it from the first rank.
func packVote(v *Vote) []float64 {
	out := make([]float64, 0, 3+len(v.Ranks))
	out = append(out, ibits(v.Step), ibits(int64(v.CRC)), ibits(v.Atoms))
	for _, r := range v.Ranks {
		out = append(out, ibits(int64(r)))
	}
	return out
}

// unpackVote validates a vote vector received from rank src: step, a
// 32-bit CRC, atom count and at least one rank, every rank a
// non-negative int32. A malformed vector is a bad-payload
// *mpi.FrameError naming src and the vote tag. The shard name is
// shardName of the first rank, never a string from the wire, so a peer
// cannot make the manifest name a file outside its generation.
func unpackVote(in []float64, src int) (*Vote, error) {
	bad := func(format string, args ...any) error {
		return &mpi.FrameError{Reason: "bad-payload", Detail: fmt.Sprintf("vote vector from rank %d (tag %d) malformed: %s",
			src, mpi.TagCkptVote, fmt.Sprintf(format, args...))}
	}
	if len(in) < 4 {
		return nil, bad("%d floats, want step, CRC, atoms and at least one rank", len(in))
	}
	bits := func(i int) int64 { return int64(math.Float64bits(in[i])) }
	crc := bits(1)
	if crc < 0 || crc > math.MaxUint32 {
		return nil, bad("CRC %d is not 32-bit", crc)
	}
	ranks := make([]int32, len(in)-3)
	for i := range ranks {
		r := bits(3 + i)
		if r < 0 || r > math.MaxInt32 {
			return nil, bad("rank %d", r)
		}
		ranks[i] = int32(r)
	}
	return &Vote{Step: bits(0), Shard: shardName(int(ranks[0])), CRC: uint32(crc), Ranks: ranks, Atoms: bits(2)}, nil
}

// ShardDir names the shard store for checkpoint path (the monolithic
// file's path with a ".shards" suffix, so the two modes never collide).
func ShardDir(path string) string { return path + ".shards" }

// genDirName names the generation directory for a checkpoint step.
func genDirName(step int64) string { return fmt.Sprintf("gen-%012d", step) }

// shardName names the shard file written by the process whose lowest
// local rank is r.
func shardName(r int) string { return fmt.Sprintf("shard-r%04d.gmcs", r) }

// shardAsm is one step's in-flight shard assembly within a process.
type shardAsm struct {
	shard *Shard
	// filled counts deposited local ranks; the depositor completing the
	// set writes the shard and closes done.
	filled int
	done   chan struct{}
	err    error
	vote   Vote // valid once done is closed and err is nil
}

// ShardWriter is the sharded analogue of Writer: the per-rank
// CheckpointSink of a multi-process run. Each process runs one
// ShardWriter over its local ranks; the sink's two-phase commit (see
// the package comment) spans processes via the world's reserved
// checkpoint tags, so a completed Sink call on any rank implies the
// generation's manifest is durable.
type ShardWriter struct {
	dir  string
	size int

	mu         sync.Mutex
	keep       int
	grid       [3]int
	corrupt    func(step int64, path string)
	killCommit func(rank int, step int64)
	world      *mpi.World
	local      []int
	pending    map[int64]*shardAsm
}

// NewShardWriter returns a writer storing generations under
// ShardDir(path) for a world of size ranks. Bind must be called with
// the world before the first checkpoint step.
func NewShardWriter(path string, size int) *ShardWriter {
	return &ShardWriter{
		dir:     ShardDir(path),
		size:    size,
		keep:    1,
		pending: map[int64]*shardAsm{},
	}
}

// SetKeep retains n complete generations (default 1). Torn generations
// newer than the newest complete one are never pruned — they are
// overwritten in place when the run re-reaches their step.
func (sw *ShardWriter) SetKeep(n int) {
	if n < 1 {
		n = 1
	}
	sw.mu.Lock()
	sw.keep = n
	sw.mu.Unlock()
}

// SetGrid records the engine's decomposition grid (stored in every
// shard so restore can rebuild per-rank coordinates).
func (sw *ShardWriter) SetGrid(g [3]int) {
	sw.mu.Lock()
	sw.grid = g
	sw.mu.Unlock()
}

// SetCorruptor installs a post-write hook running after each completed
// shard write with the step and shard path — the fault injector's hook
// for simulating on-disk corruption the CRC layer must catch.
func (sw *ShardWriter) SetCorruptor(fn func(step int64, path string)) {
	sw.mu.Lock()
	sw.corrupt = fn
	sw.mu.Unlock()
}

// SetKillCommit installs a hook running on every local rank between
// local shard durability and the vote phase — the fault injector's
// window for killing a process exactly mid-commit, leaving the
// generation torn (shards on disk, no manifest).
func (sw *ShardWriter) SetKillCommit(fn func(rank int, step int64)) {
	sw.mu.Lock()
	sw.killCommit = fn
	sw.mu.Unlock()
}

// Bind points the writer at the (re-)rendezvoused world. Call it on
// every build: re-rendezvous may assign different ranks to this
// process, and ranks killed mid-assembly leave stale deposits behind.
func (sw *ShardWriter) Bind(w *mpi.World) {
	sw.mu.Lock()
	sw.world = w
	sw.local = append([]int(nil), w.LocalRanks()...)
	sw.pending = map[int64]*shardAsm{}
	sw.mu.Unlock()
}

// Reset drops partially-assembled shards without rebinding.
func (sw *ShardWriter) Reset() {
	sw.mu.Lock()
	sw.pending = map[int64]*shardAsm{}
	sw.mu.Unlock()
}

// Sink returns the function to install as core.Config.CheckpointSink
// on every local rank. The call is a commit barrier: no rank returns
// until the step's manifest is durable (or the commit failed).
func (sw *ShardWriter) Sink() func(*core.Simulation) error {
	return func(s *core.Simulation) error {
		rk := CaptureRank(s)
		rank := s.Rank()
		step := s.Step

		sw.mu.Lock()
		world, kill := sw.world, sw.killCommit
		if world == nil {
			sw.mu.Unlock()
			return fmt.Errorf("ckpt: shard writer not bound to a world")
		}
		asm := sw.pending[step]
		if asm == nil {
			asm = &shardAsm{
				shard: &Shard{
					Step:      step,
					WorldSize: sw.size,
					Ranks:     sw.local,
					Grid:      sw.grid,
					Box:       s.Box,
					SetupBox:  s.SetupBox,
					Q2Setup:   s.Q2Setup,
					PerRank:   make([]Rank, len(sw.local)),
				},
				done: make(chan struct{}),
			}
			sw.pending[step] = asm
		}
		for i, lr := range sw.local {
			if lr == rank {
				asm.shard.PerRank[i] = rk
			}
		}
		asm.filled++
		if asm.filled == len(sw.local) {
			delete(sw.pending, step)
			asm.err = sw.deposit(asm)
			close(asm.done)
		}
		sw.mu.Unlock()

		// Phase 1, local half: wait (abort-aware) for this process'
		// shard to be durable. The wait parks on the checkpoint tag so
		// a hang here is diagnosable as a "ckpt-commit" stall.
		comm := world.Comm(rank)
		comm.WaitCommitEvent(asm.done)
		if asm.err != nil {
			return asm.err
		}
		if kill != nil {
			kill(rank, step)
		}
		return sw.commit(comm, rank, step, asm)
	}
}

// deposit writes the assembled shard atomically into its generation
// directory and fills asm.vote. Called with sw.mu held by the last
// local rank to report.
func (sw *ShardWriter) deposit(asm *shardAsm) error {
	sh := asm.shard
	gd := filepath.Join(sw.dir, genDirName(sh.Step))
	if err := os.MkdirAll(gd, 0o777); err != nil {
		return err
	}
	name := shardName(sh.Ranks[0])
	path := filepath.Join(gd, name)
	var crc uint32
	err := writeFileAtomicFunc(path, func(f io.Writer) error {
		h := crc32.NewIEEE()
		if err := writeShard(io.MultiWriter(f, h), sh); err != nil {
			return err
		}
		crc = h.Sum32()
		return nil
	})
	if err != nil {
		return err
	}
	if sw.corrupt != nil {
		sw.corrupt(sh.Step, path)
	}
	var atoms int64
	ranks := make([]int32, len(sh.Ranks))
	for i, r := range sh.Ranks {
		ranks[i] = int32(r)
		atoms += int64(len(sh.PerRank[i].Atoms))
	}
	asm.vote = Vote{Step: sh.Step, Shard: name, CRC: crc, Ranks: ranks, Atoms: atoms}
	return nil
}

// commit is phase 2: every rank sends its process' vote to rank 0;
// rank 0 dedups by shard name, verifies the set covers the world,
// fsyncs the manifest, prunes old generations, and releases everyone.
// Non-zero ranks block on the release, so no rank leaves the sink
// before the generation is complete.
func (sw *ShardWriter) commit(comm *mpi.Comm, rank int, step int64, asm *shardAsm) error {
	if rank != 0 {
		comm.Send(0, mpi.TagCkptVote, packVote(&asm.vote), -1)
		comm.Recv(0, mpi.TagCkptRelease)
		return nil
	}
	votes := map[string]*Vote{asm.vote.Shard: &asm.vote}
	for src := 1; src < sw.size; src++ {
		v, err := unpackVote(comm.Recv(src, mpi.TagCkptVote), src)
		if err != nil {
			return err
		}
		if v.Step != step {
			return fmt.Errorf("ckpt: commit for step %d received a vote for step %d from rank %d", step, v.Step, src)
		}
		votes[v.Shard] = v
	}
	covered := make([]bool, sw.size)
	for _, v := range votes {
		for _, r := range v.Ranks {
			if int(r) < 0 || int(r) >= sw.size {
				return fmt.Errorf("ckpt: vote for shard %s covers out-of-world rank %d", v.Shard, r)
			}
			covered[r] = true
		}
	}
	for r, ok := range covered {
		if !ok {
			return fmt.Errorf("ckpt: commit for step %d covers no shard for rank %d", step, r)
		}
	}
	if err := sw.writeManifest(step, votes); err != nil {
		return err
	}
	sw.prune()
	for dst := 1; dst < sw.size; dst++ {
		comm.Send(dst, mpi.TagCkptRelease, nil, 0)
	}
	return nil
}

// writeManifest fsyncs the generation's commit record.
func (sw *ShardWriter) writeManifest(step int64, votes map[string]*Vote) error {
	names := make([]string, 0, len(votes))
	for n := range votes {
		names = append(names, n)
	}
	sort.Strings(names)
	sw.mu.Lock()
	grid := sw.grid
	sw.mu.Unlock()
	path := filepath.Join(sw.dir, genDirName(step), ManifestName)
	return writeFileAtomicFunc(path, func(f io.Writer) error {
		e := newCkptEncoder(f, ckptVersion)
		e.u32(manifestMagic)
		e.u32(ckptVersion)
		e.i64(step)
		e.u32(uint32(sw.size))
		for d := 0; d < 3; d++ {
			e.u32(uint32(grid[d]))
		}
		e.u32(uint32(len(names)))
		for _, n := range names {
			v := votes[n]
			e.str(n)
			e.u32(v.CRC)
			e.u32(uint32(len(v.Ranks)))
			for _, r := range v.Ranks {
				e.u32(uint32(r))
			}
			e.i64(v.Atoms)
		}
		e.endSection()
		e.footer()
		return e.finish()
	})
}

// prune removes generation directories older than the keep newest
// complete ones. Torn directories newer than the newest complete
// generation are kept: the re-reached step overwrites them in place.
func (sw *ShardWriter) prune() {
	sw.mu.Lock()
	keep := sw.keep
	sw.mu.Unlock()
	steps, complete := scanGenerations(sw.dir)
	if len(complete) <= keep {
		return
	}
	oldestKept := complete[keep-1]
	for _, st := range steps {
		if st < oldestKept {
			os.RemoveAll(filepath.Join(sw.dir, genDirName(st)))
		}
	}
}

// scanGenerations lists generation steps under dir: all of them
// (ascending unspecified) and the complete ones (manifest present),
// newest first.
func scanGenerations(dir string) (steps, complete []int64) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil
	}
	for _, ent := range ents {
		var st int64
		if !ent.IsDir() {
			continue
		}
		if _, err := fmt.Sscanf(ent.Name(), "gen-%d", &st); err != nil {
			continue
		}
		if ent.Name() != genDirName(st) {
			continue
		}
		steps = append(steps, st)
		if _, err := os.Stat(filepath.Join(dir, genDirName(st), ManifestName)); err == nil {
			complete = append(complete, st)
		}
	}
	sort.Slice(complete, func(a, b int) bool { return complete[a] > complete[b] })
	return steps, complete
}

// writeShard serializes a shard (GMCS, always v2).
func writeShard(out io.Writer, sh *Shard) error {
	e := newCkptEncoder(out, ckptVersion)
	e.u32(shardMagic)
	e.u32(ckptVersion)
	e.i64(sh.Step)
	e.u32(uint32(sh.WorldSize))
	e.u32(uint32(len(sh.Ranks)))
	for _, r := range sh.Ranks {
		e.u32(uint32(r))
	}
	for d := 0; d < 3; d++ {
		e.u32(uint32(sh.Grid[d]))
	}
	e.box(sh.Box)
	e.box(sh.SetupBox)
	e.f(sh.Q2Setup)
	e.endSection() // header CRC
	for i := range sh.PerRank {
		e.rank(&sh.PerRank[i])
	}
	e.footer()
	return e.finish()
}

// ReadShard deserializes a shard written by writeShard, verifying its
// section CRCs and footer.
func ReadShard(in io.Reader) (*Shard, error) {
	d := newCkptDecoder(in, ckptVersion)
	if m := d.u32(); d.err != nil || m != shardMagic {
		if d.err == nil {
			d.err = fmt.Errorf("ckpt: bad shard magic %#x", m)
		}
		return nil, d.err
	}
	if v := d.u32(); d.err != nil || v != ckptVersion {
		if d.err == nil {
			d.err = fmt.Errorf("ckpt: unsupported shard version %d", v)
		}
		return nil, d.err
	}
	sh := &Shard{}
	sh.Step = d.i64()
	sh.WorldSize = int(d.u32())
	nr := d.u32()
	if d.err == nil && (nr < 1 || nr > 1<<16) {
		return nil, fmt.Errorf("ckpt: implausible shard rank count %d", nr)
	}
	if d.err != nil {
		return nil, d.finish()
	}
	sh.Ranks = make([]int, 0, capHint(uint64(nr)))
	for i := uint32(0); i < nr && d.err == nil; i++ {
		sh.Ranks = append(sh.Ranks, int(d.u32()))
	}
	for i := 0; i < 3; i++ {
		sh.Grid[i] = int(d.u32())
	}
	sh.Box = d.box()
	sh.SetupBox = d.box()
	sh.Q2Setup = d.f()
	d.endSection("header")
	if d.err != nil {
		return nil, d.finish()
	}
	sh.PerRank = make([]Rank, 0, len(sh.Ranks))
	for i := 0; i < int(nr) && d.err == nil; i++ {
		sh.PerRank = append(sh.PerRank, Rank{})
		d.rank(&sh.PerRank[i], fmt.Sprintf("rank %d", sh.Ranks[i]))
	}
	d.footer()
	if err := d.finish(); err != nil {
		return nil, err
	}
	return sh, nil
}

// ShardRecord is one shard's entry in a manifest.
type ShardRecord struct {
	Name  string
	CRC   uint32
	Ranks []int
	Atoms int64
}

// Manifest is a generation's commit record.
type Manifest struct {
	Step      int64
	WorldSize int
	Grid      [3]int
	Shards    []ShardRecord
}

// readManifest deserializes and verifies a manifest file.
func readManifest(in io.Reader) (*Manifest, error) {
	d := newCkptDecoder(in, ckptVersion)
	if m := d.u32(); d.err != nil || m != manifestMagic {
		if d.err == nil {
			d.err = fmt.Errorf("ckpt: bad manifest magic %#x", m)
		}
		return nil, d.err
	}
	if v := d.u32(); d.err != nil || v != ckptVersion {
		if d.err == nil {
			d.err = fmt.Errorf("ckpt: unsupported manifest version %d", v)
		}
		return nil, d.err
	}
	mf := &Manifest{}
	mf.Step = d.i64()
	mf.WorldSize = int(d.u32())
	for i := 0; i < 3; i++ {
		mf.Grid[i] = int(d.u32())
	}
	ns := d.u32()
	if d.err == nil && ns > 1<<16 {
		return nil, fmt.Errorf("ckpt: implausible manifest shard count %d", ns)
	}
	if d.err != nil {
		return nil, d.finish()
	}
	mf.Shards = make([]ShardRecord, 0, capHint(uint64(ns)))
	for i := uint32(0); i < ns && d.err == nil; i++ {
		mf.Shards = append(mf.Shards, ShardRecord{})
		sr := &mf.Shards[i]
		sr.Name = d.str(1 << 10)
		sr.CRC = d.u32()
		nr := d.u32()
		if d.err != nil {
			break
		}
		if nr > 1<<16 {
			return nil, fmt.Errorf("ckpt: implausible manifest rank count %d", nr)
		}
		sr.Ranks = make([]int, 0, capHint(uint64(nr)))
		for j := uint32(0); j < nr && d.err == nil; j++ {
			sr.Ranks = append(sr.Ranks, int(d.u32()))
		}
		sr.Atoms = d.i64()
	}
	d.endSection("manifest")
	d.footer()
	if err := d.finish(); err != nil {
		return nil, err
	}
	return mf, nil
}

// ShardSet is the restore-side view of one complete generation, scoped
// to the ranks a process needs: Ranks holds parsed snapshots for the
// requested local ranks only, while the header fields are global.
type ShardSet struct {
	Step      int64
	WorldSize int
	Grid      [3]int
	NGlobal   int64
	Box       box.Box
	SetupBox  box.Box
	Q2Setup   float64
	Ranks     map[int]*Rank
}

// ShardSet views a monolithic checkpoint as the shard set of a world
// whose every rank is local, so one restore path (domain.RestoreOnWorld)
// serves both formats. The per-rank records are shared, not copied.
func (ck *Checkpoint) ShardSet() *ShardSet {
	ss := &ShardSet{
		Step: ck.Step, WorldSize: ck.Ranks, Grid: ck.Grid,
		Box: ck.Box, SetupBox: ck.SetupBox, Q2Setup: ck.Q2Setup,
		Ranks: make(map[int]*Rank, len(ck.PerRank)),
	}
	for r := range ck.PerRank {
		ss.Ranks[r] = &ck.PerRank[r]
		ss.NGlobal += int64(len(ck.PerRank[r].Atoms))
	}
	return ss
}

// ReadNewestValidManifest scans ShardDir-style directory dir newest
// generation first and loads the newest complete, intact one: the
// manifest must verify, every shard file's whole-file CRC must match
// its manifest record, and the requested localRanks must all be
// covered. Generations without a manifest (torn mid-commit) are
// skipped silently — they are expected debris of a crash. Generations
// that have a manifest but fail verification are recorded as GenError
// rejections (supervisors log them; silent fallback would hide
// corruption). When no generation directory exists at all the error
// wraps os.ErrNotExist — the "no checkpoint yet" case supervisors
// restart from scratch on.
func ReadNewestValidManifest(dir string, localRanks []int, worldSize int) (*ShardSet, []GenError, error) {
	_, complete := scanGenerations(dir)
	if len(complete) == 0 {
		return nil, nil, fmt.Errorf("ckpt: no complete shard generation under %s: %w", dir, os.ErrNotExist)
	}
	var fails []GenError
	for g, step := range complete {
		gd := filepath.Join(dir, genDirName(step))
		ss, err := loadGeneration(gd, localRanks, worldSize)
		if err == nil {
			return ss, fails, nil
		}
		fails = append(fails, GenError{Gen: g, Path: gd, Err: err})
	}
	return nil, fails, fmt.Errorf("ckpt: no intact shard generation under %s (%d rejected)", dir, len(fails))
}

// loadGeneration verifies one complete generation and parses the
// shards covering localRanks.
func loadGeneration(gd string, localRanks []int, worldSize int) (*ShardSet, error) {
	mfb, err := os.ReadFile(filepath.Join(gd, ManifestName))
	if err != nil {
		return nil, err
	}
	mf, err := readManifest(bytes.NewReader(mfb))
	if err != nil {
		return nil, err
	}
	if mf.WorldSize != worldSize {
		return nil, fmt.Errorf("ckpt: manifest is for a %d-rank world; this world has %d ranks (re-decomposition is not supported)", mf.WorldSize, worldSize)
	}
	need := map[int]bool{}
	for _, r := range localRanks {
		need[r] = true
	}
	ss := &ShardSet{
		Step:      mf.Step,
		WorldSize: mf.WorldSize,
		Grid:      mf.Grid,
		Ranks:     map[int]*Rank{},
	}
	// Every record is checked before any shard file is read: a name that
	// is not shardName of the record's first rank could point anywhere,
	// "../" included.
	covered := make([]bool, worldSize)
	for _, sr := range mf.Shards {
		if len(sr.Ranks) == 0 || sr.Name != shardName(sr.Ranks[0]) {
			return nil, &IntegrityError{Section: "manifest", Detail: fmt.Sprintf(
				"shard record %q does not name the shard of its first rank (ranks %v)", sr.Name, sr.Ranks)}
		}
		for _, r := range sr.Ranks {
			if r < 0 || r >= worldSize {
				return nil, fmt.Errorf("ckpt: manifest shard %s covers out-of-world rank %d", sr.Name, r)
			}
			covered[r] = true
		}
	}
	for r, ok := range covered {
		if !ok {
			return nil, fmt.Errorf("ckpt: manifest covers no shard for rank %d", r)
		}
	}
	haveHeader := false
	for _, sr := range mf.Shards {
		local := false
		for _, r := range sr.Ranks {
			local = local || need[r]
		}
		ss.NGlobal += sr.Atoms
		// Every shard's bytes are verified against the manifest CRC —
		// cheap insurance that the whole generation is intact, not just
		// the slices this process restores.
		b, err := os.ReadFile(filepath.Join(gd, sr.Name))
		if err != nil {
			return nil, err
		}
		if crc := crc32.ChecksumIEEE(b); crc != sr.CRC {
			return nil, &IntegrityError{Section: "shard " + sr.Name, Detail: fmt.Sprintf(
				"whole-file CRC mismatch (manifest %#08x, computed %#08x)", sr.CRC, crc)}
		}
		if !local {
			continue
		}
		sh, err := ReadShard(bytes.NewReader(b))
		if err != nil {
			return nil, fmt.Errorf("ckpt: shard %s: %w", sr.Name, err)
		}
		if sh.Step != mf.Step {
			return nil, fmt.Errorf("ckpt: shard %s is for step %d, manifest for step %d", sr.Name, sh.Step, mf.Step)
		}
		if !haveHeader {
			ss.Box, ss.SetupBox, ss.Q2Setup = sh.Box, sh.SetupBox, sh.Q2Setup
			haveHeader = true
		}
		for i, r := range sh.Ranks {
			if need[r] {
				rk := sh.PerRank[i]
				ss.Ranks[r] = &rk
			}
		}
	}
	for _, r := range localRanks {
		if ss.Ranks[r] == nil {
			return nil, fmt.Errorf("ckpt: generation has no snapshot for local rank %d", r)
		}
	}
	return ss, nil
}
