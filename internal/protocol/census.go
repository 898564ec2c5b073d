package protocol

import (
	"sync"

	"p2pstream/internal/bandwidth"
)

// Census is a running per-class tally of suppliers and of their lowest
// favored classes (the anchors of their admission vectors): the paper's
// Figure 7 reads the mean anchor per supplier class, and a census answers it
// in O(1) per class instead of a walk over every supplier. It is attached to
// a Supplier with SetCensus and updated only when that supplier's anchor
// moves — after a session, on an idle timeout — never per probe.
//
// The zero value is an empty census. Census is safe for concurrent use.
type Census struct {
	mu      sync.Mutex
	count   [bandwidth.MaxClass + 1]int64
	anchors [bandwidth.MaxClass + 1]int64
}

// Class returns how many attached suppliers have the given class and the sum
// of their lowest favored classes.
func (c *Census) Class(class bandwidth.Class) (suppliers, anchorSum int64) {
	if class < 1 || class > bandwidth.MaxClass {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count[class], c.anchors[class]
}

// add counts n suppliers of class class whose anchors sum to anchors (both
// negative to take them out).
func (c *Census) add(class bandwidth.Class, n, anchors int64) {
	c.mu.Lock()
	c.count[class] += n
	c.anchors[class] += anchors
	c.mu.Unlock()
}
