// Package noreason holds a testonly directive without a reason: the
// directive is a finding and suppresses nothing.
package noreason

//lint:allow testonly
func Kept() {}
