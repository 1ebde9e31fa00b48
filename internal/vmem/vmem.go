// Package vmem models virtual-to-physical address translation.
//
// CCProf analyzes the L1, which is virtually indexed (VIPT), so the set
// index can be read straight off the sampled virtual address. Footnote 1 of
// the paper notes that profiling L2 or LLC conflicts — both physically
// indexed — additionally requires the virtual-to-physical mapping, and
// leaves it out of scope. This package supplies that missing substrate: a
// page table populated on first touch under a configurable frame-allocation
// policy, so the L2-conflict extension (see pmu.L2Sampler and the
// physically-indexed analyses) can translate sampled addresses the way the
// kernel's pagemap interface would.
//
// Frame policies matter because physical-set conflicts depend on frame
// colouring: identity mapping preserves virtual conflict structure exactly,
// sequential allocation preserves it within a page but reshuffles page
// colours, and random allocation models a fragmented heap.
package vmem

import (
	"fmt"
	"math/rand"
)

// PageSize is the translation granularity (4 KiB, the x86 base page).
const PageSize = 4096

const pageShift = 12

// Policy selects how physical frames are assigned to freshly touched
// virtual pages.
type Policy uint8

// Frame-allocation policies.
const (
	// Identity maps every virtual page to the equal-numbered frame.
	// Physical conflict structure equals virtual conflict structure.
	Identity Policy = iota
	// Sequential hands out frames in first-touch order, like a fresh
	// kernel with an empty free list.
	Sequential
	// Random draws frames uniformly, modelling a long-running system
	// with a fragmented free list.
	Random
)

func (p Policy) String() string {
	switch p {
	case Identity:
		return "identity"
	case Sequential:
		return "sequential"
	case Random:
		return "random"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// Space is one address space: a lazily populated page table.
type Space struct {
	policy Policy
	rng    *rand.Rand
	table  map[uint64]uint64 // virtual page number -> frame number
	next   uint64            // next frame for Sequential
	frames map[uint64]bool   // frames already handed out (Random)
}

// NewSpace returns an empty address space. rng is required for the Random
// policy (a deterministic default is installed when nil).
func NewSpace(p Policy, rng *rand.Rand) *Space {
	if p == Random && rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	return &Space{
		policy: p,
		rng:    rng,
		table:  make(map[uint64]uint64),
		frames: make(map[uint64]bool),
	}
}

// randFrameSpan bounds the frame numbers drawn by the Random policy; 1M
// frames = 4 GiB of simulated physical memory.
const randFrameSpan = 1 << 20

// Translate returns the physical address of a virtual address, installing
// a mapping on first touch.
func (s *Space) Translate(vaddr uint64) uint64 {
	vpn := vaddr >> pageShift
	frame, ok := s.table[vpn]
	if !ok {
		frame = s.allocFrame(vpn)
		s.table[vpn] = frame
	}
	return frame<<pageShift | vaddr&(PageSize-1)
}

func (s *Space) allocFrame(vpn uint64) uint64 {
	switch s.policy {
	case Identity:
		return vpn
	case Sequential:
		f := s.next
		s.next++
		return f
	default: // Random
		for {
			f := uint64(s.rng.Int63n(randFrameSpan))
			if !s.frames[f] {
				s.frames[f] = true
				return f
			}
		}
	}
}
