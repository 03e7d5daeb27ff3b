// Library fixture: live and dead exports.
package demo

// Live is called from qcsim/cmd/tool: fine.
func Live() int { return Limit + helper() }

// Limit is only referenced inside its own package: still live.
const Limit = 3

// Dead is only reached from a test file.
func Dead() int { return 0 } // want "exported func Dead has no non-test reference"

// Orphan is never referenced at all.
type Orphan struct{} // want "exported type Orphan has no non-test reference"

// Counter is referenced only through its method, which is exempt.
type Counter int // want "exported type Counter"

// Inc is a method: interface dispatch hides its callers.
func (c *Counter) Inc() { *c++ }

var (
	Hits   int // want "exported var Hits"
	misses int
)

//qclint:allow deadexport TestFixture in demo_test.go builds its inputs with it
func Fixture() []int { return []int{misses} }

func helper() int { return 1 }
