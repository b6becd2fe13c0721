module paw/benchmark

go 1.22

require paw v0.0.0

replace paw => ../
