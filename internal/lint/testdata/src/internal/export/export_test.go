package export

func useFromTest() {
	OnlyTests()
	Allowed()
	_ = (&Counter{}).N()
	_ = Limit
}
