module github.com/tactic-icn/tactic/bench

go 1.22

require github.com/tactic-icn/tactic v0.0.0

replace github.com/tactic-icn/tactic => ../
