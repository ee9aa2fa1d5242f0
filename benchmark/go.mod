module karousos.dev/karousos/benchmark

go 1.22

require karousos.dev/karousos v0.0.0

replace karousos.dev/karousos => ../
