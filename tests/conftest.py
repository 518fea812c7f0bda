from hypothesis import settings

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
