// Package opts holds one case for each way the surface guard's field
// rules can go wrong. TestProductSurfaceFixture lists what it must flag.
package opts

import (
	"encoding/json"
	"sync"
)

// Options is built with a composite literal by another package.
type Options struct {
	Width int     // set by the caller
	Depth int     // flagged (knob): set only by withDefaults
	Buf   [4]byte // set by the caller through Buf[:]
}

func (o Options) withDefaults() Options {
	if o.Depth == 0 {
		o.Depth = 3
	}
	return o
}

// Dead is flagged (func): nothing calls it.
func (o Options) Dead() {}

// Unused is flagged (decl): nothing references it.
var Unused = 1

// Run reads every option.
func Run(o Options) int {
	o = o.withDefaults()
	return o.Width*o.Depth + int(o.Buf[0])
}

// Row is encoded to JSON.
type Row struct {
	Name    string // read only through json.Marshal
	Scratch int    `json:"-"` // flagged (field): json skips it and nothing else reads it
}

// Encode marshals a Row.
func Encode(name string) ([]byte, error) {
	return json.Marshal(Row{Name: name, Scratch: len(name)})
}

// Trail only appends to its log.
type Trail struct {
	log []string // flagged (field): x.log = append(x.log, ...) is a write
}

// Add appends s.
func (t *Trail) Add(s string) { t.log = append(t.log, s) }

// Pool is generic: the caller's Pool[int] literal sets the origin's New.
type Pool[T any] struct {
	New  func() T
	made int // flagged (field): counted, never read
}

// Get makes a value.
func (p *Pool[T]) Get() T {
	p.made++
	return p.New()
}

// Node writes through its pointer field and locks its mutex.
type Node struct {
	mu   sync.Mutex // used only by Lock and Unlock
	leaf *Leaf      // read: n.leaf.V = v reaches it to write through it
}

// Leaf is shared with the caller, which reads V.
type Leaf struct{ V int }

// NewNode returns a node writing into l.
func NewNode(l *Leaf) *Node { return &Node{leaf: l} }

// Set stores v in the node's leaf.
func (n *Node) Set(v int) {
	n.mu.Lock()
	n.leaf.V = v
	n.mu.Unlock()
}

// Public is aliased by the facade, so its fields are exempt.
type Public struct {
	Hits int
}

// Hit counts a hit.
func (p *Public) Hit() { p.Hits++ }
