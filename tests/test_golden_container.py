"""Container-format stability (golden blob) test.

A container produced by version 1.0.0 of this library is frozen below
(base64).  Every future revision must keep decoding it bit-compatibly —
compressed scientific archives outlive the software that wrote them.  If
this test breaks, either restore compatibility or bump the container
VERSION and add a migration path; silently changing the format is not an
option.

The blob: fzmod-default (lorenzo + histogram + huffman, radius 512),
eb=1e-3 REL, on a seeded 12x16 float32 cumsum field.

A second blob pins fzmod-speed (lorenzo + bitshuffle) on the same field.
That pipeline builds no codebook, so its bytes are a pure function of the
input: the blob, written by the ``np.unpackbits`` bit-plane shuffle of
commit 22b8cfd, must also be *reproduced* byte for byte by today's encoder.

Two more pin fzmod-default and fzmod-quality (interp + histogram-topk +
huffman) the same way: both were written at commit 8614a1e, the last one
with a stage interpreter next to the plan executor, so they hold the one
remaining executor to the bytes both of them wrote.

A fifth was written at commit 9811c60 by ``StfDefaultPipeline``, the
hand-written task-graph pipeline deleted after it, at eb=1e-4 on the
same field (67 outliers).  Its header carries the stage -> name map but
no spec field, so ``repro.decompress`` reads it through the module-map
branch of ``decode_plan_for_header``; the values it returns are pinned
by digest.

The multi-shard (FZMS) layouts are pinned by sha256 digest instead of a
blob: their field is built from integer arithmetic, so it is the same on
every platform.
"""

from __future__ import annotations

import base64
import hashlib

import numpy as np
import pytest

import repro
from repro.core import (decompress, fzmod_default, fzmod_quality,
                        fzmod_speed)
from repro.metrics import verify_error_bound

GOLDEN_BLOB = base64.b64decode(
    "RlpNRAEAJQIAABPw0KV7InNoYXBlIjpbMTIsMTZdLCJkdHlwZSI6IjxmNCIsImViX3ZhbHVl"
    "IjowLjAwMSwiZWJfbW9kZSI6InJlbCIsImViX2FicyI6MC4wMTE5MTE5NTIwMTg3Mzc3OTMs"
    "InJhZGl1cyI6NTEyLCJtb2R1bGVzIjp7InByZXByb2Nlc3MiOiJyZWwtZWIiLCJwcmVkaWN0"
    "b3IiOiJsb3JlbnpvIiwiZW5jb2RlciI6Imh1ZmZtYW4iLCJzZWNvbmRhcnkiOiJub25lIiwi"
    "c3RhdGlzdGljcyI6Imhpc3RvZ3JhbSJ9LCJzdGFnZV9tZXRhIjp7InByZWRpY3RvciI6e30s"
    "ImVuY29kZXIiOnsiY291bnQiOjE5MiwibWF4X2xlbiI6MTYsIm5jaHVua3MiOjF9LCJwcmVw"
    "cm9jZXNzIjp7Im1vZGUiOiJyZWwiLCJtaW4iOi02LjQ2OTE3ODE5OTc2ODA2NiwibWF4Ijo1"
    "LjQ0Mjc3MzgxODk2OTcyN30sIm91dGxpZXJzIjp7ImNvdW50IjowfSwiYXV4Ijp7fX0sInNl"
    "Y3Rpb25zIjpbWyJlbmMucGF5bG9hZCIsMCwxNjddLFsiZW5jLmxlbmd0aHMiLDE2NywxMDI0"
    "XSxbImVuYy5jaHVua19zeW1zIiwxMTkxLDhdLFsiZW5jLmNodW5rX2JpdHMiLDExOTksOF1d"
    "LCJib2R5X2NyYyI6MjM4NDA2MTYyMX1spZvObYpWtfrEMXz/j+asGFlkdtCMctVjDmQcDSJJ"
    "dH6Y+gD/66UVGUI47sqHwzYUXHvAK+CW4LM3zqepYZWDi1nbKJ7Q4YVTpMNV/KcW4wO47ye/"
    "wbgn/87TMq/YYv70I5kf2UPif0HUqlBBJWyPM68iBTfeKgsJkgc77BkVWPJdiIGREOiuGPOS"
    "2hRIi+SeSZz8zxnwFXVSDrrujbyvoNtQl9JsoAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAICAAAAAcAAAAAAAAAAAAAAAAAAAAAAAAI"
    "AAAAAAAAAAAAAAAIBgAACAAAAAgACAAAAAAAAAAAAAAICAcACAAICAgIAAYHAAAAAAgACAAI"
    "AAcHCAgAAAgIAAgACAAIBwAIBwYABggHBwgIBwgGCAcHBwcACAgHBgcHBgcHBgAHAAcHBwAG"
    "BwAAAAcHBwcHBwcGBwYABwAAAAYABwcHBwcABwcABwcHBwYHBwcHBwcAAAcHAAcHBwAHBwAA"
    "AAAHBwcHBwAHBwcABgcABwAHAAcHBwcABwcAAAcAAAcAAAAABwAAAAAAAAcAAAAAAAAAAAAH"
    "BwAAAAAAAAAABwAHAAAABwAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAABwAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAADAAAAAAAAAADQFAAAAAAAA"
)

GOLDEN_SPEED_BLOB = base64.b64decode(
    "RlpNRAEAkwIAAM1Kxhd7InNoYXBlIjpbMTIsMTZdLCJkdHlwZSI6IjxmNCIsImViX3ZhbHVl"
    "IjowLjAwMSwiZWJfbW9kZSI6InJlbCIsImViX2FicyI6MC4wMTE5MTE5NTIwMTg3Mzc3OTMs"
    "InJhZGl1cyI6NTEyLCJtb2R1bGVzIjp7InByZXByb2Nlc3MiOiJyZWwtZWIiLCJwcmVkaWN0"
    "b3IiOiJsb3JlbnpvIiwiZW5jb2RlciI6ImJpdHNodWZmbGUiLCJzZWNvbmRhcnkiOiJub25l"
    "In0sInN0YWdlX21ldGEiOnsicHJlZGljdG9yIjp7fSwiZW5jb2RlciI6eyJjb3VudCI6MTky"
    "LCJvcmlnX2xlbiI6ODE5Miwid29yZF9ieXRlcyI6MzIsIndpZHRoIjoxNn0sInByZXByb2Nl"
    "c3MiOnsibW9kZSI6InJlbCIsIm1pbiI6LTYuNDY5MTc4MTk5NzY4MDY2LCJtYXgiOjUuNDQy"
    "NzczODE4OTY5NzI3fSwib3V0bGllcnMiOnsiY291bnQiOjB9LCJhdXgiOnt9fSwic2VjdGlv"
    "bnMiOltbImVuYy5iaXRtYXAyIiwwLDBdLFsiZW5jLmJpdG1hcDEiLDAsMzJdLFsiZW5jLndv"
    "cmRzIiwzMiwyODhdXSwiYm9keV9jcmMiOjMxODY1OTIwNjAsInBpcGVsaW5lIjp7InByZXBy"
    "b2Nlc3MiOiJyZWwtZWIiLCJwcmVkaWN0b3IiOiJsb3JlbnpvIiwic3RhdGlzdGljcyI6bnVs"
    "bCwiZW5jb2RlciI6ImJpdHNodWZmbGUiLCJzZWNvbmRhcnkiOiJub25lIiwicmFkaXVzIjo1"
    "MTIsIm5hbWUiOiJmem1vZC1zcGVlZCJ9fQAAAAAAAAAAAAAAAAAAgACAAIAAgACAAIAAgACA"
    "AIAAAAAAAAAAACAAAEAAIAAAAAAAAAAAAAAAAAAAAAAAAAAMJAJGwNATUKB4ChdQEADAQgCM"
    "AABAhwAAAAAAAAAAAAQAifxWCCzkHTaUABgrcFwRZmESAzxyJwAAAAAAAAAATksAdKbuphAK"
    "BTDAlqINAtD5KyKJ6lP4AAAAAAAAAAARdvF3qcfxGhT8oaYRIpJipKsqPzmHHW4AAAAAAAAA"
    "AJzBWWaUVxw9ELWJ6+WFDTGFmAoyZ/WCtQAAAAAAAAAA2z07borGP5M+Av6gXP1Hb+fzV5aV"
    "GRaoAAAAAAAAAABWvyBUwEUQuw7LecXWEDNwEetVH7HRimUAAAAAAAAAAEtWdkWlcqzUlSpJ"
    "7KrXma6dXZnODamtHAAAAAAAAAAA"
)

GOLDEN_DEFAULT_BLOB = base64.b64decode(
    "RlpNRAEAwAIAAE6ALKB7InNoYXBlIjpbMTIsMTZdLCJkdHlwZSI6IjxmNCIsImViX3ZhbHVl"
    "IjowLjAwMSwiZWJfbW9kZSI6InJlbCIsImViX2FicyI6MC4wMTE5MTE5NTIwMTg3Mzc3OTMs"
    "InJhZGl1cyI6NTEyLCJtb2R1bGVzIjp7InByZXByb2Nlc3MiOiJyZWwtZWIiLCJwcmVkaWN0"
    "b3IiOiJsb3JlbnpvIiwiZW5jb2RlciI6Imh1ZmZtYW4iLCJzZWNvbmRhcnkiOiJub25lIiwi"
    "c3RhdGlzdGljcyI6Imhpc3RvZ3JhbSJ9LCJzdGFnZV9tZXRhIjp7InByZWRpY3RvciI6e30s"
    "ImVuY29kZXIiOnsiY291bnQiOjE5MiwibWF4X2xlbiI6MTYsIm5jaHVua3MiOjF9LCJwcmVw"
    "cm9jZXNzIjp7Im1vZGUiOiJyZWwiLCJtaW4iOi02LjQ2OTE3ODE5OTc2ODA2NiwibWF4Ijo1"
    "LjQ0Mjc3MzgxODk2OTcyN30sIm91dGxpZXJzIjp7ImNvdW50IjowfSwiYXV4Ijp7fX0sInNl"
    "Y3Rpb25zIjpbWyJlbmMucGF5bG9hZCIsMCwxNjddLFsiZW5jLmNodW5rX3N5bXMiLDE2Nyw4"
    "XSxbImVuYy5jaHVua19iaXRzIiwxNzUsOF0sWyJlbmMubGVuZ3RocyIsMTgzLDEwMjRdXSwi"
    "Ym9keV9jcmMiOjExNDQ3NjIwNzksInBpcGVsaW5lIjp7InByZXByb2Nlc3MiOiJyZWwtZWIi"
    "LCJwcmVkaWN0b3IiOiJsb3JlbnpvIiwic3RhdGlzdGljcyI6Imhpc3RvZ3JhbSIsImVuY29k"
    "ZXIiOiJodWZmbWFuIiwic2Vjb25kYXJ5Ijoibm9uZSIsInJhZGl1cyI6NTEyLCJuYW1lIjoi"
    "Znptb2QtZGVmYXVsdCJ9fWylm85tila1+sQxfP+P5qwYWWR20Ixy1WMOZBwNIkl0fpj6AP/r"
    "pRUZQjjuyofDNhRce8Ar4JbgszfOp6lhlYOLWdsontDhhVOkw1X8pxbjA7jvJ7/BuCf/ztMy"
    "r9hi/vQjmR/ZQ+J/QdSqUEElbI8zryIFN94qCwmSBzvsGRVY8l2IgZEQ6K4Y85LaFEiL5J5J"
    "nPzPGfAVdVIOuu6NvK+g21CX0mygwAAAAAAAAAA0BQAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAICAAAAAcAAAAAAAAAAAAA"
    "AAAAAAAAAAAIAAAAAAAAAAAAAAAIBgAACAAAAAgACAAAAAAAAAAAAAAICAcACAAICAgIAAYH"
    "AAAAAAgACAAIAAcHCAgAAAgIAAgACAAIBwAIBwYABggHBwgIBwgGCAcHBwcACAgHBgcHBgcH"
    "BgAHAAcHBwAGBwAAAAcHBwcHBwcGBwYABwAAAAYABwcHBwcABwcABwcHBwYHBwcHBwcAAAcH"
    "AAcHBwAHBwAAAAAHBwcHBwAHBwcABgcABwAHAAcHBwcABwcAAAcAAAcAAAAABwAAAAAAAAcA"
    "AAAAAAAAAAAHBwAAAAAAAAAABwAHAAAABwAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAAAAAAAAAAAAAABwAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA="
)

GOLDEN_QUALITY_BLOB = base64.b64decode(
    "RlpNRAEA5gIAAKl403B7InNoYXBlIjpbMTIsMTZdLCJkdHlwZSI6IjxmNCIsImViX3ZhbHVl"
    "IjowLjAwMSwiZWJfbW9kZSI6InJlbCIsImViX2FicyI6MC4wMTE5MTE5NTIwMTg3Mzc3OTMs"
    "InJhZGl1cyI6NTEyLCJtb2R1bGVzIjp7InByZXByb2Nlc3MiOiJyZWwtZWIiLCJwcmVkaWN0"
    "b3IiOiJpbnRlcnAiLCJlbmNvZGVyIjoiaHVmZm1hbiIsInNlY29uZGFyeSI6Im5vbmUiLCJz"
    "dGF0aXN0aWNzIjoiaGlzdG9ncmFtLXRvcGsifSwic3RhZ2VfbWV0YSI6eyJwcmVkaWN0b3Ii"
    "OnsibWF4X2xldmVsIjo1fSwiZW5jb2RlciI6eyJjb3VudCI6MTkxLCJtYXhfbGVuIjoxNiwi"
    "bmNodW5rcyI6MX0sInByZXByb2Nlc3MiOnsibW9kZSI6InJlbCIsIm1pbiI6LTYuNDY5MTc4"
    "MTk5NzY4MDY2LCJtYXgiOjUuNDQyNzczODE4OTY5NzI3fSwib3V0bGllcnMiOnsiY291bnQi"
    "OjB9LCJhdXgiOnt9fSwic2VjdGlvbnMiOltbImVuYy5wYXlsb2FkIiwwLDE3Ml0sWyJlbmMu"
    "Y2h1bmtfc3ltcyIsMTcyLDhdLFsiZW5jLmNodW5rX2JpdHMiLDE4MCw4XSxbImVuYy5sZW5n"
    "dGhzIiwxODgsMTAyNF0sWyJhbmNob3JzIiwxMjEyLDRdXSwiYm9keV9jcmMiOjIxMDM0NDA1"
    "LCJwaXBlbGluZSI6eyJwcmVwcm9jZXNzIjoicmVsLWViIiwicHJlZGljdG9yIjoiaW50ZXJw"
    "Iiwic3RhdGlzdGljcyI6Imhpc3RvZ3JhbS10b3BrIiwiZW5jb2RlciI6Imh1ZmZtYW4iLCJz"
    "ZWNvbmRhcnkiOiJub25lIiwicmFkaXVzIjo1MTIsIm5hbWUiOiJmem1vZC1xdWFsaXR5In19"
    "1kGICfzQfMcNWrXkxw3IhGh/wOUs4wo1Z2cmwJ0Aa/Gm7c5dUSZVrCwyZAqUoCggNmX1/JmF"
    "BoI6ZEVRv1Or0igMx4l1RYge+zKNC1/Ov0DdkoidEFEkm/cEoxONqx7aNbqt+7i9+j3crSbV"
    "CP5G/wuX7z9J5hLqhf9jwJ5qXZsyrw8MZ7cE6XdIC6AO9Rr3OktlldWPUv+XyME25NPBzgaT"
    "7ch28enxZ73UpL8AAAAAAAAAXwUAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAgAAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAACAAAAAAAAAAA"
    "CAAAAAcAAAAAAAAACAAAAAAAAAAAAAAAAAAAAAAAAAAACAAACAAAAAAAAAAAAAAAAAAAAAgA"
    "AAAAAAAACAAAAAAAAAAAAAAIAAAAAAAICAgAAAAAAAAAAAAAAAAAAAAACAAAAAAACAAACAAA"
    "AAAAAAAIAAAIAAAAAAgACAAAAAAAAAgAAAAAAAAAAAgICAAACAgACAAACAgAAAAAAAAAAAAA"
    "AAgABwAAAAAACAAAAAAACAAAAAAAAAgACAAAAAgAAAAACAcACAgACAAGCAAACAgICAgACAgA"
    "CAgACAgICAcACAgHBwAAAAAAAAAAAAcICAAHBgcAAAcHAAAABwAHBwcHBgcHAAYHAAcHAAAG"
    "AAAHBwcHBwcHBwcHBwcABwAGAAcHBwcHBwcHBwAABwcHAAAHBwAAAAAAAAcHAAAHBwAABwcH"
    "AAcHAAcHAAcAAAAHAAAAAAcABwcAAAAABwAAAAcHAAcHAAAHAAcABwAAAAAHBwAAAAAAAAAH"
    "BwAAAAAAAAAAAAcAAAAABwAAAAcAAAAAAAcAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "BwAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAcAAAAAAAAAAAAAAAcAAAAAAAcAAAAAAAAA"
    "AAAAAAAAAAAAAAAHAAAAAAAAAAAAAAAAAAcAAAAAAAAAAAAAAAAAAAAAAAAHAAcAAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAInAYPg=="
)

GOLDEN_STF_BLOB = base64.b64decode(
    "RlpNRAEAEwIAAH1ZRiJ7InNoYXBlIjpbMTIsMTZdLCJkdHlwZSI6IjxmNCIsImViX3ZhbHVl"
    "IjowLjAwMDEsImViX21vZGUiOiJyZWwiLCJlYl9hYnMiOjAuMDAxMTkxMTk1MjAxODczNzc5"
    "MywicmFkaXVzIjo1MTIsIm1vZHVsZXMiOnsicHJlcHJvY2VzcyI6InJlbC1lYiIsInByZWRp"
    "Y3RvciI6ImxvcmVuem8iLCJzdGF0aXN0aWNzIjoiaGlzdG9ncmFtIiwiZW5jb2RlciI6Imh1"
    "ZmZtYW4iLCJzZWNvbmRhcnkiOiJub25lIn0sInN0YWdlX21ldGEiOnsicHJlZGljdG9yIjp7"
    "fSwicHJlcHJvY2VzcyI6e30sImVuY29kZXIiOnsiY291bnQiOjE5MiwibWF4X2xlbiI6MTYs"
    "Im5jaHVua3MiOjF9LCJvdXRsaWVycyI6eyJjb3VudCI6Njd9fSwic2VjdGlvbnMiOltbImVu"
    "Yy5wYXlsb2FkIiwwLDEyOV0sWyJlbmMubGVuZ3RocyIsMTI5LDEwMjRdLFsiZW5jLmNodW5r"
    "X3N5bXMiLDExNTMsOF0sWyJlbmMuY2h1bmtfYml0cyIsMTE2MSw4XSxbIm91dGxpZXIuaWR4"
    "IiwxMTY5LDU1XSxbIm91dGxpZXIudmFsIiwxMjI0LDE2MF1dLCJib2R5X2NyYyI6Mzk4MjYz"
    "MTU5MH3Wu3AXkbUsGJKWnN8YuHF99F+9wlmOQ/TZTsgvk3sgk2uwUgphvUu3rtJPKDhrZIKf"
    "i/nSeDBrokVlCIKrlvZFvmHjkqOPL76G545FwX/tUVNnq17dhZ+Eou0hwVf5YvJnHWzdDq/8"
    "aM2pWnv7ltl+aA+YX3z4CZWI45OhdWU/9eoAAAAAAAAHAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
    "AAAAAAAAAAAIAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAIAAAAAAAAAAAAAAgAAAAAAAAAAAAA"
    "AAAAAAAAAAAAAAAIAAAAAAAAAAAAAAAIAAAAAAAAAAAAAAAAAAAAAAAIAAgAAAAAAAAAAAAI"
    "AAAAAAAACAAAAAAAAAAACAAAAAAAAAAAAAAAAAgICAAAAAAAAAAAAAAACAAAAAAAAAAIAAAA"
    "AAAIAAAAAAAACAgAAAAAAAYAAAAAAAAAAAAAAAAAAAgACAAAAAAAAAAAAAgAAAgAAAAAAAAA"
    "AAgAAAAAAAAAAAAACAAAAAAIAAAAAAAAAAAAAAAAAAAABwAAAAAICAAAAAAAAAAABwAAAAAA"
    "AAgAAAAAAAAIAAgIAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAIAAAAAAgAAAgAAAAAAAAACAAA"
    "AAAAAAAABwAAAAAAAAgAAAAAAAAAAAAACAAAAAAAAAgAAAAAAAAAAAgACAAAAAAABwAAAAAA"
    "AAAAAAAACAAACAAAAAAABwAAAAAAAAAIAAAACAAAAAAAAAAAAAAAAAAAAAAIAAAIAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAACAgAAAAIAAAAAAAAAAAAAAAIAAgAAAAACAAAAAAIAAEA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAgAAAAAAAAAAAAAAAAACAAAAAAA"
    "AAAAAAAICAAAAAAAAAAAAAAAAAAAAAAAAAgAAAAAAAAACAAAAAAAAAAIAAgAAAAIAAAICAAA"
    "AAAAAAcAAAAAAAAAAAAHAAAAAAgAAAAACAAAAAAAAAAAAAAAAAAAAAAAAAAIAAAAAAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAACAAAAAAABwAAAAAAAAAAAAAAAAAAAAAAAAAACAgAAAAA"
    "AAAAAAAACAAAAAAAAAAIAAAIAAAACAAAAAAAAAgAAAAAAAAAAAAAAAAAAAAIAAAAAAAAAAAA"
    "AAAAAAAAAAAAAAAIAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAIAAAIAAAAAAAIAAAAAAAAAAAI"
    "AAAAAAgAAAAAAAAAAAAABwAAAAAICAAIAAAIAAAAAAAAAAAIAAAAAAgAAAAAAAAAAAAAAAAA"
    "CAAAAAgAAAAAAAAAAAAIAAAAAAAICAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAACAAA"
    "AAAAAAAAAAAIAAAAAAAAAAAAAAAACAAAAAAAAAAIAAAAAAAIAAAAAAcAAAAABwAAAAAAAAAA"
    "AAAAAAAAAAcAAAAAAAAAAAAAAAAAAAAAwAAAAAAAAAAHBAAAAAAAAEMAAAAAAAAAAwAAAAQE"
    "AkBCggAQEDIBYBABAEEUAAAxAUEAEAYCkHQgURAWgQUhCAAAAAAAAAAAQwAAAAAAAAADAAAA"
    "DAwMbPkmXgXlUvn5TSRqoDYkdvd4Q5cQeBVdShYmRJZ2XCeVz2d3UXUwQKW6iRhqW3SupHQE"
    "WpUkUKWtXsViWIprmiSgVpRlUbhcZmUaQNSoUFRKdNUkQTUVTvagQrV1SGXvleb7ToAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
)

#: sha256 of the float32 bytes ``StfDefaultPipeline.decompress`` returned
#: for :data:`GOLDEN_STF_BLOB` when it wrote it
GOLDEN_STF_OUTPUT_DIGEST = (
    "c9beb0e71872c4133d06c38d164c2cbb08174724c37ea0fe6bbf62f57c8e9c0f")

GOLDEN_DATA = np.frombuffer(base64.b64decode(
    "InAYPkNxrb6XEK2+iYviPEcXA8Bpkj0/1eqDPi6lD7yGyOE9QD0VvxC2mj/bKWw/mjOwPydk"
    "174pTYe/6lX/vt0Ziz8iZ6M+YIVIPMtnRzwuZpO/VqXPP3VZ4r6eBb8+OjqiP63wHcDnLEs/"
    "WjTtPzrER0CHsd2/DrD9vpPYKb4EL5e/i3eoPg4LCr+tEaQ+wWMcv0fHXz+8zj68G8EbPxn4"
    "aUDCxRfAfXHzPnVizb19xBNA3yvnvy5Vpr+UVSy/rmjlv5qcjL13ZhbApxHFPuDhu79GPqW/"
    "9LtTvtjKCkAys4pAuyuAwFzTMkC0sne9yfQpQDjcFsByLM2/K2BJv1QkVsBROdC/ecUUwLKR"
    "Ob9rXqy/cBUOwKZTMr/esGo/4S9YQKrATcC5wXg/lD0vPx7Z0z+d8Pa/CUsCwFw1N79gcA/A"
    "3TVqwLfhbsBEKWi/4nxQwNGoU8CGBFu+OjqGPxLPMEBIQ4vAGdYIvys6Nz+JEMU/xc1xwEAi"
    "BcDedWI/t/YwwLXRH8Bp87fAKJZqPKk5SsDFCSrAzB8jPBJ1xT+Vky1AOlqPwGPVPz/tsbE+"
    "Ifb/P8htYMDBkknAfFKOvz/3PsC7ZPO/C7uLwOdUyz5sLFLAiGwRwGZzKj/3vNM/UJyhPzMr"
    "WMCH7rg/+jv5P7gfMUBFEmTA31l3wEgr17+ugG7AI0cxv3bqOcCYvic/XNVDwILjF8A0owdA"
    "3u8IQE8QIEBBHVjAnWA3QISwM0CLtTlAd0aHwPRIXsBdgv2/GkSowOCGsr+D/RLAobqZP023"
    "l8CMIB/AdycvQHi4wT8D5uY/SE+DwBAfNEA/2XdAUKpuQJ65asAR5Y7AQQgvwJC5mcBWeFq/"
    "rO63v5kWFEA3QIfA7E8HwMHVfEB3B5w/Q/tHP2q0RsDDeSJA47ORQIjcTEDrl0rAmzxZwKVk"
    "A8CCA8/Aibaxvxv/L8A4YRhAzAuMwOZbgsBbGptAg7p3vMLCpj0C803ABgh7QDQrrkC7W1tA"
    "Zo+AwGOcUsCe1om/"
), dtype=np.float32).reshape(12, 16)


def shard_field() -> np.ndarray:
    """A 120x90 field from integer arithmetic only (exact in float32), so
    the pinned FZMS digests do not depend on the platform's libm."""
    y, x = np.mgrid[0:120, 0:90].astype(np.int64)
    v = 3 * (x - 45) ** 2 + 2 * (y - 60) ** 2 + (x * 7 + y * 13) % 17
    return v.astype(np.float32) / np.float32(64.0)


#: sha256 of the multi-shard containers of :func:`shard_field` at eb=1e-3
#: REL and shard_mb=0.01 (five shards), written at commit f4338d6 and
#: identical there for workers 1, 2 and 3
GOLDEN_SHARD_DIGESTS = {
    ("fzmod-default", "per-shard"):
        "bd90d90eeb1b73541cb05c3d344c0516b1baf5074aa1321e5741ba33f1d858c4",
    ("fzmod-default", "shared"):
        "b24552d3a1990279d0b19f9de5868caacc3c74ca4527d372b262254a0b9782e6",
    ("fzmod-default", "stream"):
        "fd04f69695261629d8168771bb287342d78e426c99b130f579f2bd9e6b6ecdcd",
    ("fzmod-speed", "per-shard"):
        "53fd3d59823d48536f1eebfade55daaef18e720f9795e0c25ed1cca0f9d31300",
    ("fzmod-quality", "per-shard"):
        "50da8c1c80b971cbe2aec7f20c751ad765eef468fd2f80867b7baa3236b5f038",
}


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("preset,layout", sorted(GOLDEN_SHARD_DIGESTS))
class TestGoldenShardContainers:
    """FZMS v1 (per-shard codebook), v2 (shared) and v3 (stream layout)
    bytes, pinned for every worker count."""

    def test_todays_engine_writes_the_same_bytes(self, tmp_path, preset,
                                                 layout, workers):
        x = shard_field()
        kw = dict(workers=workers, shard_mb=0.01)
        if layout == "stream":
            path = tmp_path / "f.fzms"
            repro.compress(x, preset, 1e-3, stream=True, out=path,
                           layout="stream", **kw)
            blob = path.read_bytes()
        else:
            blob = repro.compress(x, preset, 1e-3, codebook=layout, **kw).blob
        assert hashlib.sha256(blob).hexdigest() == \
            GOLDEN_SHARD_DIGESTS[preset, layout]
        recon = repro.decompress(blob, workers=workers)
        assert verify_error_bound(x, recon, 1e-3 * float(np.ptp(x)))


class TestGoldenContainer:
    def test_decodes(self):
        recon = decompress(GOLDEN_BLOB)
        assert recon.shape == (12, 16)
        assert recon.dtype == np.float32

    def test_bound_still_honoured(self):
        recon = decompress(GOLDEN_BLOB)
        rng_v = float(GOLDEN_DATA.max() - GOLDEN_DATA.min())
        assert verify_error_bound(GOLDEN_DATA, recon, 1e-3 * rng_v)

    def test_todays_encoder_is_compatible(self):
        """Re-encoding the same data with the same settings must produce a
        container the same decoder path accepts (not necessarily
        byte-identical — codebooks may legitimately differ — but the
        header schema and sections must round-trip)."""
        from repro.core import fzmod_default
        cf = fzmod_default().compress(GOLDEN_DATA, 1e-3)
        recon = decompress(cf.blob)
        rng_v = float(GOLDEN_DATA.max() - GOLDEN_DATA.min())
        assert verify_error_bound(GOLDEN_DATA, recon, 1e-3 * rng_v)

    def test_golden_header_fields(self):
        from repro.core import parse
        header, _ = parse(GOLDEN_BLOB)
        assert header.modules["predictor"] == "lorenzo"
        assert header.modules["encoder"] == "huffman"
        assert header.radius == 512
        assert header.eb_mode == "rel"


class TestGoldenSpeedContainer:
    def test_bound_still_honoured(self):
        recon = decompress(GOLDEN_SPEED_BLOB)
        assert recon.shape == (12, 16) and recon.dtype == np.float32
        rng_v = float(GOLDEN_DATA.max() - GOLDEN_DATA.min())
        assert verify_error_bound(GOLDEN_DATA, recon, 1e-3 * rng_v)

    def test_todays_encoder_writes_the_same_bytes(self):
        assert fzmod_speed().compress(GOLDEN_DATA, 1e-3).blob == \
            GOLDEN_SPEED_BLOB


@pytest.mark.parametrize("preset,golden", [
    (fzmod_default, GOLDEN_DEFAULT_BLOB), (fzmod_quality, GOLDEN_QUALITY_BLOB)],
    ids=["default", "quality"])
class TestGoldenHuffmanContainers:
    def test_bound_still_honoured(self, preset, golden):
        recon = decompress(golden)
        assert recon.shape == (12, 16) and recon.dtype == np.float32
        rng_v = float(GOLDEN_DATA.max() - GOLDEN_DATA.min())
        assert verify_error_bound(GOLDEN_DATA, recon, 1e-3 * rng_v)

    def test_todays_encoder_writes_the_same_bytes(self, preset, golden):
        assert preset().compress(GOLDEN_DATA, 1e-3).blob == golden


class TestGoldenStfContainer:
    def test_decodes_through_the_module_map(self):
        from repro.core import parse
        header, _ = parse(GOLDEN_STF_BLOB)
        assert header.pipeline_spec() is None
        assert header.stage_meta["outliers"] == {"count": 67}
        recon = repro.decompress(GOLDEN_STF_BLOB)
        assert recon.shape == (12, 16) and recon.dtype == np.float32
        assert hashlib.sha256(recon.tobytes()).hexdigest() == \
            GOLDEN_STF_OUTPUT_DIGEST
        rng_v = float(GOLDEN_DATA.max() - GOLDEN_DATA.min())
        assert verify_error_bound(GOLDEN_DATA, recon, 1e-4 * rng_v)
