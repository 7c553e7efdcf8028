"""Violation fixture: fire without on_repair (RPR003)."""

from repro.core.interface import PredictorComponent


class SpeculatesWithoutRepair(PredictorComponent):  # RPR003
    def lookup(self, req, predict_in):
        return predict_in[0], 0

    def storage(self):
        raise NotImplementedError

    def fire(self, bundle):
        self.counter = getattr(self, "counter", 0) + 1


class Intermediate(SpeculatesWithoutRepair):  # RPR003 (inherited fire)
    pass


class RepairsProperly(PredictorComponent):
    def lookup(self, req, predict_in):
        return predict_in[0], 0

    def storage(self):
        raise NotImplementedError

    def fire(self, bundle):
        self.counter = getattr(self, "counter", 0) + 1

    def on_repair(self, bundle):
        self.counter -= 1


class InheritsRepair(RepairsProperly):
    def fire(self, bundle):
        self.counter = getattr(self, "counter", 0) + 2


class SuppressedIntermediate(SpeculatesWithoutRepair):  # repro: noqa[RPR003]
    pass
