package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
)

const (
	kib = int64(1) << 10
	mib = int64(1) << 20

	ranks        = 2 // rank goroutines, = nproc on the reference machine
	stripeUnit   = 128 * kib
	warmupEpochs = 4
	minEpochs    = 40
	// nominalSeconds is the -seconds value at which a workload runs the
	// timed epochs its table entry names; other values scale the count.
	nominalSeconds = 20
)

type planeKind int

const (
	planePlain    planeKind = iota // microfs on one TCPPlane
	planeStriped                   // RAID-0 StripedPlane over one TCPPlane per target
	planeMirrored                  // R=2 mirrored StripedPlane over one TCPPlane per target
)

// workload is one fixed configuration of the stack and of the work each
// rank does per epoch.
type workload struct {
	name, why string

	plane      planeKind
	targets    int
	queuePairs int   // per target; targets*queuePairs = 2 TCP connections
	devBPS     int64 // modelled device bandwidth per namespace, 0 = none

	files              int   // per rank per epoch
	minBytes, maxBytes int64 // file size; seeded when they differ
	ioBytes            int64 // bytes per Write and per Read call, 0 = whole file
	fsyncEach          bool  // Fsync every file, else only the last
	statOnRestart      bool  // Stat every file before opening it

	epochs int // timed epochs at nominalSeconds
}

var workloads = []workload{
	{
		name:  "ckpt_large",
		why:   "CoMD N-N shape, 1 MiB calls on RAID-0 over 2 targets: copy- and transport-bound, vfs/microfs/wal idle",
		plane: planeStriped, targets: 2, queuePairs: 1,
		files: 1, minBytes: 64 * mib, maxBytes: 64 * mib, ioBytes: mib, fsyncEach: true,
		epochs: 60,
	},
	{
		name:  "ckpt_small",
		why:   "16 KiB calls on one plain TCPPlane: per-call cost of wal flush, microfs and one command each dominates",
		plane: planePlain, targets: 1, queuePairs: 2,
		files: 1, minBytes: 32 * mib, maxBytes: 32 * mib, ioBytes: 16 * kib, fsyncEach: true,
		epochs: 60,
	},
	{
		name:  "ckpt_mirror_dev",
		why:   "R=2 mirror on 100 MB/s modelled devices: device-bound control, CPU-path changes must not move it",
		plane: planeMirrored, targets: 2, queuePairs: 1, devBPS: 100e6,
		files: 1, minBytes: 8 * mib, maxBytes: 8 * mib, ioBytes: mib, fsyncEach: true,
		epochs: 40,
	},
	{
		name:  "meta_storm",
		why:   "1000 seeded 512 B-4 KiB files per rank: vfs resolve/quota, microfs metadata, wal records, snapshot, replay",
		plane: planePlain, targets: 1, queuePairs: 2,
		files: 1000, minBytes: 512, maxBytes: 4 * kib, statOnRestart: true,
		epochs: 80,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// timedEpochs scales the workload's epoch count to the time budget. The
// work is fixed, not the time: the same -seconds always runs the same
// epochs, which is what lets write_amp and space_amp repeat exactly.
func (w workload) timedEpochs(seconds int) int {
	n := (w.epochs*seconds + nominalSeconds/2) / nominalSeconds
	if n < minEpochs {
		n = minEpochs
	}
	return n
}

// inputs is what one rank writes each epoch: file names and the order of
// file sizes drawn from the seed once, and the payload bytes behind them.
type inputs struct {
	names   []string
	offs    []int64 // file i is payload[offs[i]:offs[i+1]]
	payload []byte
	crcs    []uint32 // of each file as stamped for the current epoch
	ioBytes int64
}

func (in *inputs) file(i int) []byte { return in.payload[in.offs[i]:in.offs[i+1]] }

func (in *inputs) userBytes() int64 { return int64(len(in.payload)) }

// newInputs draws rank's inputs from the seed.
func newInputs(w workload, seed uint64, rank int) *inputs {
	rng := rand.New(rand.NewPCG(seed, uint64(rank)))
	in := &inputs{offs: make([]int64, 1, w.files+1), ioBytes: w.ioBytes}
	// Sizes are an even grid from minBytes to maxBytes handed to the files
	// in seeded order, so every seed writes the same number of bytes.
	sizes := make([]int64, w.files)
	for i := range sizes {
		sizes[i] = w.minBytes
		if w.files > 1 {
			sizes[i] += (w.maxBytes - w.minBytes) * int64(i) / int64(w.files-1)
		}
	}
	rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	for i, size := range sizes {
		in.offs = append(in.offs, in.offs[i]+size)
		in.names = append(in.names, fmt.Sprintf("f%04d-%08x.ckpt", i, rng.Uint32()))
	}
	in.payload = make([]byte, in.offs[w.files])
	n := len(in.payload) &^ 7
	for i := 0; i < n; i += 8 {
		binary.LittleEndian.PutUint64(in.payload[i:], rng.Uint64())
	}
	for i := n; i < len(in.payload); i++ {
		in.payload[i] = byte(rng.Uint32())
	}
	in.crcs = make([]uint32, w.files)
	return in
}

// stamp marks every Write call's bytes with the generation and records
// each file's CRC-32, so a restart that reads a block of an older
// generation fails the check.
func (in *inputs) stamp(gen int) {
	for i := range in.names {
		data := in.file(i)
		step := in.ioBytes
		if step == 0 {
			step = int64(len(data))
		}
		for off := int64(0); off+8 <= int64(len(data)); off += step {
			binary.LittleEndian.PutUint64(data[off:], uint64(gen)<<32|uint64(i))
		}
		in.crcs[i] = crc32.ChecksumIEEE(data)
	}
}
