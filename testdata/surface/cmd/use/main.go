// Command use is the product code that reaches package opts.
package main

import (
	"fmt"

	"repro/internal/opts"
)

func main() {
	o := opts.Options{Width: 2}
	copy(o.Buf[:], "abcd")
	fmt.Println(opts.Run(o))

	b, err := opts.Encode("x")
	fmt.Println(string(b), err)

	var tr opts.Trail
	tr.Add("x")

	p := opts.Pool[int]{New: func() int { return 7 }}
	fmt.Println(p.Get())

	leaf := new(opts.Leaf)
	opts.NewNode(leaf).Set(1)
	fmt.Println(leaf.V)
}
