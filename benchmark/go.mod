module skv/benchmark

go 1.22

require skv v0.0.0

replace skv => ../
