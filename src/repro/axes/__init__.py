"""XPath axes: relationship decisions, axis evaluation, location paths."""

from repro.axes.accelerator import AxisAccelerator
from repro.axes.evaluator import AXES, AxisEvaluator
from repro.axes.relationships import (
    Relationship,
    decide,
    level_supported,
    oracle,
    supported_relationships,
)
from repro.axes.xpath import Step, XPathEvaluator, parse_path, xpath

__all__ = [
    "AXES",
    "AxisAccelerator",
    "AxisEvaluator",
    "Relationship",
    "Step",
    "XPathEvaluator",
    "decide",
    "level_supported",
    "oracle",
    "parse_path",
    "supported_relationships",
    "xpath",
]
