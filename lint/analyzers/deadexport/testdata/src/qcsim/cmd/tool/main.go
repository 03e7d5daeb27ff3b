// Binary fixture: the module's only non-test user of demo.Live.
package main

import "qcsim/internal/demo"

func main() { println(demo.Live()) }
