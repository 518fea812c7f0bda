import re

from hypothesis import settings

from weylunip.errors import ParseError
from weylunip.partitions import parse_partition
from weylunip.special_classes import Bipartition, PairSequenceBC, PairSequenceD

settings.register_profile("ci", deadline=None)
settings.load_profile("ci")


def parse_atlas(text: str) -> list[dict[str, str]]:
    """Parse an atlas dump back into per-line key/value records."""
    records = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        rec = {}
        for tok in line.split(" "):
            key, _, value = tok.partition("=")
            rec[key] = value
        records.append(rec)
    return records


def parse_pair_sequence_bc(text: str) -> PairSequenceBC:
    """Parse ``a,b|a,b|...`` into a B/C pair sequence."""
    text = text.strip()
    if not text:
        return PairSequenceBC(())
    pairs = []
    for tok in text.split("|"):
        m = re.fullmatch(r"([0-9]+),([0-9]+)", tok.strip())
        if not m:
            raise ParseError(f"bad pair {tok!r}")
        pairs.append((int(m.group(1)), int(m.group(2))))
    return PairSequenceBC(tuple(pairs))


def parse_pair_sequence_d(text: str) -> PairSequenceD:
    """Parse ``a,b:e|a,b:e|...`` into a flagged type-D pair sequence."""
    text = text.strip()
    if not text:
        return PairSequenceD(())
    pairs = []
    for tok in text.split("|"):
        m = re.fullmatch(r"([0-9]+),([0-9]+):([01])", tok.strip())
        if not m:
            raise ParseError(f"bad flagged pair {tok!r}")
        pairs.append((int(m.group(1)), int(m.group(2)), int(m.group(3))))
    return PairSequenceD(tuple(pairs))


def parse_bipartition(text: str) -> Bipartition:
    """Parse ``y=...;z=...`` into a bipartition."""
    m = re.fullmatch(r"y=(?P<y>[0-9,]*);z=(?P<z>[0-9,]*)", text.strip())
    if not m:
        raise ParseError(f"bipartition must look like 'y=...;z=...': {text!r}")
    return Bipartition(parse_partition(m.group("y")), parse_partition(m.group("z")))
