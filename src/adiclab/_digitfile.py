"""Digit text files, such as `construct --out` writes, read as streams.

Only `analyze --in` loads this module. A file is read in blocks of
BLOCK_BYTES, so a reader holds one block of text and its digits at once,
whatever the file's length.
"""

from __future__ import annotations

import codecs
from functools import partial
from typing import Iterator

from .digits import CHUNK_DIGITS, Base, Chunk, DigitStream, parse_digit_text, to_chunk

# Bytes read at a time; a block's digits make chunks of at most CHUNK_DIGITS.
BLOCK_BYTES = CHUNK_DIGITS

# The characters that `str.splitlines` ends a line at. A "\r\n" that a
# block edge cuts reads as a line end and an empty line, which holds no digits.
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def digit_file(path: str, base: Base) -> DigitStream:
    """The digits of a digit text file, as a stream that reopens the file
    each time its chunks are made and reads it in blocks.

    The file is decoded as `open(path)` decodes it and cut into lines where
    `str.splitlines` cuts them. Lines starting with '#' are skipped and
    every other line is stripped at both ends; what remains must be ASCII
    digits below the base. A file without digits is refused at its end.
    Every refusal is a ValueError. A decode error names its byte position
    in the file, as a whole-file decode does; a bad line is refused when
    its block is read, so it is found before a decode error in a later
    block."""
    return DigitStream(base, partial(_file_chunks, path, base))


def _file_chunks(path: str, base: Base) -> Iterator[Chunk]:
    """The chunks of `digit_file`, one block's digits at a time.

    A line that a block edge cuts is carried as three facts, not as text:
    whether it is a comment, whether a digit has been seen on it, and the
    first whitespace character after its last digit. That character is an
    error if another digit follows on the line, since the strip does not
    remove it."""
    try:
        # Text mode only names the encoding that `open` decodes with; the
        # blocks are read as bytes, so a decode error's position is known.
        handle = open(path)
    except OSError as exc:
        raise ValueError(f"cannot read digit file: {exc}")
    found = False
    offset = 0  # bytes read before this block
    fresh = True  # the next character starts a line
    comment = lead = False
    gap = ""
    with handle:
        decoder = codecs.getincrementaldecoder(handle.encoding)()
        while True:
            try:
                block = handle.buffer.read(BLOCK_BYTES)
            except OSError as exc:
                raise ValueError(f"cannot read digit file: {exc}")
            try:
                text = decoder.decode(block, final=not block)
            except UnicodeDecodeError as exc:
                raise _decode_error(exc, offset - len(decoder.getstate()[0]))
            offset += len(block)
            lines = text.splitlines()
            parts = []
            for k, line in enumerate(lines):
                if fresh:
                    comment, lead, gap = line.startswith("#"), True, ""
                if not comment:
                    if lead:
                        line = line.lstrip()
                    body = line.rstrip()
                    if body:
                        lead = False
                        try:
                            parts.append(parse_digit_text(gap + body, base.s))
                        except ValueError as exc:
                            raise ValueError(f"{exc} in {path}")
                    if not lead and not gap and len(body) < len(line):
                        gap = line[len(body)]
                fresh = k < len(lines) - 1 or text[-1] in _LINE_BREAKS
            if parts:
                found = True
                digits = to_chunk(b"".join(parts), base)
                for start in range(0, len(digits), CHUNK_DIGITS):
                    yield digits[start : start + CHUNK_DIGITS]
            if not block:
                break
    if not found:
        raise ValueError(f"no digits found in {path}")


def _decode_error(exc: UnicodeDecodeError, shift: int) -> ValueError:
    """`exc`, raised on the bytes that start `shift` bytes into the file,
    worded as `UnicodeDecodeError` words it but with positions in the file."""
    start = exc.start + shift
    if exc.end == exc.start + 1:
        where = f"byte 0x{exc.object[exc.start]:02x} in position {start}"
    else:
        where = f"bytes in position {start}-{exc.end - 1 + shift}"
    return ValueError(f"'{exc.encoding}' codec can't decode {where}: {exc.reason}")
