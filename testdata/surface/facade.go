// Package facade is the fixture module's root: like the real facade, it
// re-exports an internal type under an alias, which exempts that type's
// fields and methods from the guard.
package facade

import "repro/internal/opts"

// Public is public API; its write-only field is not flagged.
type Public = opts.Public
