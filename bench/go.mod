module p2pstream/bench

go 1.24

require p2pstream v0.0.0

replace p2pstream => ../
