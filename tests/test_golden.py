"""Byte-for-byte CLI output: sha256 digests of a fixed list of documents.

A change made for speed must leave every byte of these documents as it was.
The list covers both spectrum matrices of cyclic, dihedral and product groups
of orders 2..250 (the adjacency one alone at prime cyclic orders, where the
distance spectrum does not apply), charpolys of a few cyclic orders, of the
small orders 1, 2 and 3 and of Z_2 met as D_1, and of one noncyclic group
against K_n, the CSV adjacency matrix, and one verify report of per-matrix
checks with its timing fields zeroed.  The numeric eigenvalues are computed
with BLAS, so the spectrum digests hold for the numpy 2.4 and OpenBLAS 0.3
builds they were recorded with; another BLAS may round differently in the
last bits.
"""

import hashlib
import re

import pytest

from spg.cli import main

DIGESTS = {
    "spectrum --group cyclic:4 --matrix adjacency": "9517237dac44b088cb39bfba7fd1dace3881472af53fe4fa6486f6185d7ea649",
    "spectrum --group cyclic:4 --matrix distance": "5c6bac0c338d3af6bf853ea3d6dc9bf3f3810eba4f6b9210519648d63f4055d6",
    "spectrum --group cyclic:6 --matrix adjacency": "84b6f772172175cf28e4e4743b3f6004b40094f6f03924b2b8a3265bd66b4ce4",
    "spectrum --group cyclic:6 --matrix distance": "0105742e20e570c5f3bdb8b5535bce03f4bf252861a65b9830543ea7ef07eba3",
    "spectrum --group cyclic:12 --matrix adjacency": "f8416a2cb9457e889f508f47a5fb3aeda9375567d2e2d86fde3f5c03d310ae9a",
    "spectrum --group cyclic:12 --matrix distance": "7ea5ec3e26eab32cedf6fb7400e59dc8919d7ca4dee135b15444de2d6b8499f4",
    "spectrum --group cyclic:30 --matrix adjacency": "1804c99a6c63f3ee5031bdf3b2f03796be423e58e0627eb3c17859eeb34d9c65",
    "spectrum --group cyclic:30 --matrix distance": "5bef9fe88d4431c55da0394c3c65853f70b46ebf8b2b6f3f76309fdc1c854910",
    "spectrum --group cyclic:64 --matrix adjacency": "102849f155e507a4bb0d1917518117318c20b225decc0ccd7d4e93719291987e",
    "spectrum --group cyclic:64 --matrix distance": "47cd048f172e2219826d1581543814a569305ada6d492917bda1cded3e18c2fd",
    "spectrum --group cyclic:100 --matrix adjacency": "8dbe4e559763f018032a091dfdae8fa8d228a6e69fe9cb4255479a50ea29ac11",
    "spectrum --group cyclic:100 --matrix distance": "5cbb91f68321fb94a2756cfb7200afeff6ac9897c74d3c88aba7b2db85cde0f8",
    "spectrum --group cyclic:105 --matrix adjacency": "6f089061764ed4dda1a170326f0b5559a09d9cf42a7ffc5fff93248a5cb98e8c",
    "spectrum --group cyclic:105 --matrix distance": "5a44d907ca1d95813966ae4763d76f8fd19b8d34cea35ae5b139a07f71315911",
    "spectrum --group cyclic:128 --matrix adjacency": "8fb598563e0a63476793eb84a82a85778274f146d7b703048b452562dafc1cd3",
    "spectrum --group cyclic:128 --matrix distance": "beac95c52ae9bfa37bc6c2cb592cc5b9b793dcb0dcc5304c3b39f21b682310fa",
    "spectrum --group cyclic:210 --matrix adjacency": "de2c345b6d7736a09ac159a403a1dcad07955e95ebeec5bff4098ae81d340def",
    "spectrum --group cyclic:210 --matrix distance": "ece03c9ce1ad0e7e44d216c797f4612ff6ddab084270325a99e0ed763c3a8f57",
    "spectrum --group cyclic:250 --matrix adjacency": "a331477138f867314eee5f2ebbc098cf8784c4772f4f29f6bafb9d5f83679b5d",
    "spectrum --group cyclic:250 --matrix distance": "8f85bbe3233c55b2c8623ce2e6469f67380534a00a6ac6ab997dd46c80f52562",
    "spectrum --group dihedral:3 --matrix adjacency": "4d295e0f2f91313ddad5ebfd5987769cf614281ad6c183fcd6ac0aaa7c3a8e87",
    "spectrum --group dihedral:3 --matrix distance": "60168d27f044c3fabe8f8c5914e601d515a75f48582aae640c3d656c98e57774",
    "spectrum --group dihedral:10 --matrix adjacency": "6e2c4a7f56d8e28ba981b10e8cae7cc1a1df1141ff1ea65af7e6151cae8c8e69",
    "spectrum --group dihedral:10 --matrix distance": "25f7fff1a938719dbab3bfb49462028950252999dad6c92510c9154c901ddb5f",
    "spectrum --group dihedral:50 --matrix adjacency": "45cf596c7f9df0549b5d3f1956101733f91155fd608752bce12ac9e3857b5080",
    "spectrum --group dihedral:50 --matrix distance": "eda3f911447e664224421e839e79368046bb843cae4b47b26ce953e0ddc55e1b",
    "spectrum --group dihedral:125 --matrix adjacency": "dcfd215510b9f98118d6f87d630d564fb2662e82fe360f844d9d12928dac4c26",
    "spectrum --group dihedral:125 --matrix distance": "40728f3d738400c1d960addc97e0798047c3d7c01e7703acfcf8648a583077e7",
    "spectrum --group product:2,2 --matrix adjacency": "aa9cfd5637d190ed4c6276d102f00aba7478a88c133fb3b80e400ab7f5405d0e",
    "spectrum --group product:2,2 --matrix distance": "c55e4c572a9a0a5513b37a5beec626db536c8079bd720574e6b1c88463f0f700",
    "spectrum --group product:3,6 --matrix adjacency": "e8384e909b646828a27540279b3c51859b197639313b12372cf5f2d43e917ed5",
    "spectrum --group product:3,6 --matrix distance": "508953186886f707d2c175a6e64fa372daed4daef51e53c4201d9eda97039efc",
    "spectrum --group product:4,25 --matrix adjacency": "6ee9386d9775b85ad659b9068ae52fd2d2bb008addbdf67402db065cd8fe5a4e",
    "spectrum --group product:4,25 --matrix distance": "4255dd1ef84a813a62a510cf57a21948be3900359317d1ddd859d3e390dee950",
    "spectrum --group product:6,10 --matrix adjacency": "1bd475417929a1594cf461d32351c8164f15ece087017dfd8d5badc1192480b3",
    "spectrum --group product:6,10 --matrix distance": "cd1b02cf522d91068d12d130fffe9af093073a3c0462cd9b3c4ab2ac10510bd9",
    "spectrum --group product:5,50 --matrix adjacency": "dcfd215510b9f98118d6f87d630d564fb2662e82fe360f844d9d12928dac4c26",
    "spectrum --group product:5,50 --matrix distance": "40728f3d738400c1d960addc97e0798047c3d7c01e7703acfcf8648a583077e7",
    "spectrum --group cyclic:2 --matrix adjacency": "f24555d5cd120483d0278456877d9d9e7d3547d3d0a8c16d6eb57b8a1fe206e1",
    "spectrum --group cyclic:7 --matrix adjacency": "8d55fec8f8e7d067d43a46a70d3e17296bcade6edfe6f5a3e89c5f4bcbc7563d",
    "spectrum --group cyclic:101 --matrix adjacency": "c42eafb4893dced7ee09dde91877ef9976b8d5c3c3ebcf3bbd2438196547b766",
    "spectrum --group cyclic:241 --matrix adjacency": "25d724efe049cb5f7efa9f2fad1cea000718f96439cfeea40624320424e3c0a8",
    "charpoly --group cyclic:6 --matrix adjacency": "93e295cd11d9171c02e8b77dc107ba3d6c1832fd4c38b5f2a9859a42fc9a7355",
    "charpoly --group cyclic:12 --matrix distance": "b388bdf0e4a576d6706391b529344458dd107a93b9caee91dca50d9885734070",
    "charpoly --group cyclic:30 --matrix adjacency": "ef83158ea3463012f7042eb25a6bac7e6f4db9218fc1c0ea000dae70400070b0",
    "charpoly --group cyclic:30 --matrix distance": "43a9e19e97ea4723e4472207856d83f5e5610cdd3f2680735fd89e1c26ed6d25",
    "charpoly --group cyclic:97 --matrix adjacency": "1a3df47045a1d830ac07bcf16009f9ef9b96027cba6ace48814d35dbc4b75899",
    "charpoly --group cyclic:1 --matrix adjacency": "da4d9ddd914911f4717d951039edf71ad8afaa0d375841f92e3eed508ac1c9c8",
    "charpoly --group cyclic:1 --matrix distance": "84732b6fdcc9d089054eb9e19e710d1b8f12572bb99a4d4c850a5fa4a4815f21",
    "charpoly --group cyclic:2 --matrix adjacency": "a057a6f62896da9acf32cf651d1ffdc23d4f26c6f86d936eec4a03a50191805a",
    "charpoly --group cyclic:3 --matrix adjacency": "1af12597fcaf3779c521e60e5b2816decdad082e5b114928699302ca7cab4bab",
    "charpoly --group dihedral:1 --matrix adjacency": "351f3c014a6a29914e9d4efde1a24ca2635ddc50df4b0d0549bb9233d25f3d0f",
    "charpoly --group product:2,2 --matrix adjacency": "c34205c56175c1047ddedbea7a4e22b5bccd11fe0eb262d31b645eba3537b63a",
    "build --group cyclic:12 --format csv": "3c05211f867136510c6709d0f0403a4d87a6ca9b3d1725c76d3a8d87f7a0aef3",
    "build --group dihedral:6 --format csv": "fa8c18517f8c58eaa5145cfba1d1060b7a55d1b1b2258f4d460096d80b827989",
    "build --group product:3,3 --format csv": "188d2c9bc00d0a7aac20d529edc7107c3cc6ace603e0dc80945dfc2e22fb3da1",
    "verify --range 2..60": "2010bc4eac6d9806b088610a334f6b9f369598d0f07554545dd6ff4c96301115",
}

# the report's only run-dependent bytes
_TIMING = re.compile(rb'"(elapsed_ms|wall_time_ms)": \d+')


@pytest.mark.parametrize("argv", list(DIGESTS))
def test_document_bytes_are_unchanged(tmp_path, argv):
    out = tmp_path / "doc"
    assert main([*argv.split(), "--out", str(out)]) == 0
    data = _TIMING.sub(rb'"\1": 0', out.read_bytes())
    assert hashlib.sha256(data).hexdigest() == DIGESTS[argv]
