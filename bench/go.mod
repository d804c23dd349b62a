module costsense/bench

go 1.22

require costsense v0.0.0

replace costsense => ../
