module github.com/sof-repro/sof/bench

go 1.24

require github.com/sof-repro/sof v0.0.0

replace github.com/sof-repro/sof => ../
