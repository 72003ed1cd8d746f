"""lcdshare: multi-secret sharing over Z_{p^e} built on LCD codes.

The public surface, bottom up:

  ring        Z_{p^e} construction, the unit/nilpotent test
  linalg      exact vectors/matrices, unit-pivot elimination, solving
  codes       free codes, parity checks, the LCD property, generation
  scheme      dealing shares and recovering secrets
  analysis    the paper's counting figures, exact rationals that overstate security
  io_formats  canonical document files for every object
  cli         the `lcdshare` command
"""

from . import errors
from .analysis import (
    SecurityReport,
    extension_count,
    guess_probability,
    information_rate,
    render_json,
    render_text,
    report_to_dict,
    table_row,
)
from .codes import (
    LinearCode,
    dual,
    encode,
    is_codeword,
    is_lcd,
    parity_check_from_generator,
    random_code,
    random_lcd_code,
)
from .errors import LcdshareError
from .io_formats import (
    ShareFile,
    read_code,
    read_deal_record,
    read_secret,
    read_shares,
    write_code,
    write_deal_record,
    write_secret,
    write_shares,
)
from .linalg import (
    RMatrix,
    RVector,
    is_full_row_rank,
    left_null_vector,
    matrix,
    right_inverse,
    select_independent_rows,
    solve_unique,
    stack_rows,
    unit_rank,
    vector,
)
from .ring import RingSpec, is_prime, make_ring, parse_ring_label
from .rng import SplitMix64
from .scheme import DealRecord, Share, deal, deal_one, recover, verify_share, verify_shares

__version__ = "0.1.0"

__all__ = [
    "DealRecord",
    "LcdshareError",
    "LinearCode",
    "RMatrix",
    "RVector",
    "RingSpec",
    "SecurityReport",
    "Share",
    "ShareFile",
    "SplitMix64",
    "deal",
    "deal_one",
    "dual",
    "encode",
    "errors",
    "extension_count",
    "guess_probability",
    "information_rate",
    "is_codeword",
    "is_full_row_rank",
    "is_lcd",
    "is_prime",
    "left_null_vector",
    "make_ring",
    "matrix",
    "parity_check_from_generator",
    "parse_ring_label",
    "random_code",
    "random_lcd_code",
    "read_code",
    "read_deal_record",
    "read_secret",
    "read_shares",
    "recover",
    "render_json",
    "render_text",
    "report_to_dict",
    "right_inverse",
    "select_independent_rows",
    "solve_unique",
    "stack_rows",
    "table_row",
    "unit_rank",
    "vector",
    "verify_share",
    "verify_shares",
    "write_code",
    "write_deal_record",
    "write_secret",
    "write_shares",
]
