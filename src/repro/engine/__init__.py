"""The text indexing engine: parsers, persistence, and the query facade."""

from repro.engine.cli import main as cli_main
from repro.engine.corpus import DOCUMENT_REGION_NAME, Corpus
from repro.engine.highlight import annotate, excerpts
from repro.engine.session import Engine, QueryPlan
from repro.engine.sourcecode import (
    SOURCE_REGION_NAMES,
    SourceDocument,
    generate_program_source,
    parse_source,
)
from repro.engine.storage import (
    decode_instance,
    encode_instance,
    load_instance,
    save_instance,
)
from repro.engine.tagged import TaggedDocument, parse_tagged_text

__all__ = [
    "Engine",
    "Corpus",
    "DOCUMENT_REGION_NAME",
    "cli_main",
    "annotate",
    "excerpts",
    "QueryPlan",
    "TaggedDocument",
    "parse_tagged_text",
    "SourceDocument",
    "parse_source",
    "generate_program_source",
    "SOURCE_REGION_NAMES",
    "save_instance",
    "load_instance",
    "encode_instance",
    "decode_instance",
]
