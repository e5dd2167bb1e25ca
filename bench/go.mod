module elastichtap/bench

go 1.23

require elastichtap v0.0.0

replace elastichtap => ../
