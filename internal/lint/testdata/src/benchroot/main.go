// Command benchroot stands in for the nested bench module: a caller
// root whose non-test code counts as uses of the module's API.
package main

import "internal/export"

func main() {
	export.BenchOnly()
	export.Start()
	_ = export.Load(export.Store{})
}
