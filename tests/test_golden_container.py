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
"""

from __future__ import annotations

import base64

import numpy as np

from repro.core import decompress, fzmod_speed
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
