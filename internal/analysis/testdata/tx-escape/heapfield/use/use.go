// Handles stored into heap-reachable locations: a field behind a pointer,
// or a slice.
package use

import "example.com/fix/core"

type holder struct {
	tx *core.Tx
}

var retained []*core.Tx

func Stash(h *holder, tx *core.Tx) {
	h.tx = tx                       // want tx-escape
	retained = append(retained, tx) // want tx-escape
}
