package demo

import "testing"

// References from test files do not keep an export alive.
func TestFixture(t *testing.T) {
	var c Counter
	c.Inc()
	Hits += Dead() + len(Fixture())
}
