"""The pinned toricctl output corpus, replayable without pytest.

Every command on every fixture, the oracle suites and the error paths.
Each entry pins the sha256 of (exit code, stdout, stderr) from an
in-process `cli.main` run in the repository root with COLUMNS=80, where a
bare fixture name stands for its path under fixtures/.  A change to a
report, a message, a suite's defaults or draws, or the help text shows
here.  `tests/test_cli.py` checks every entry; to check them on an
interpreter without pytest, run from the repository root:

    PYTHONPATH=src python tests/pinned_digests.py

It prints each entry whose digest differs and a count, and exits 1 if
any differs.  Besides toricstab it imports only the standard library.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import platform
import sys

from toricstab.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent

COMMAND_DIGESTS = {
    "fan analyze affine2.json": "f0d5eaa74886bb9227fa3435aea870f615a618abc587433378ec5be5271b2fcb",
    "fan analyze bad_line.json": "6c435c18b142b91b4851050f46af8ebc727b228b839f5921f68e3329d6b391a9",
    "fan analyze complex_ring.json": "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "fan analyze cp1.json": "0745773601b2cdfbe12e8d7a5fb678f38592f5fdd8a7560c2297dd82b1da7562",
    "fan analyze cp2.json": "9e7c38bce5587b22f89b5cb0bc334657c0dfd8f1fb2d66f6f48e10c8b9b91d1c",
    "fan analyze cp3.json": "c8ea1556b19ac77f6f7ad22387171f9a4bcd00b8072e7754c314dece4e9ec9d7",
    "fan analyze hirzebruch1.json": "7761b4df03ceabed6e20c155d885cf2ca2e19b23cd0520e0d4b32027db4a887c",
    "fan analyze hirzebruch2.json": "f6e84b881fb0188abe835db0063d212e73bd0237bd9eb3ea3c1e6f2eeb3e7ac5",
    "fan analyze hirzebruch3.json": "10a3d42f556ff6092abcd07150d4df1e1c41c7054bd52a7380ead710316aa239",
    "fan analyze system_generic_cp1.json":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "fan analyze system_planted_cp1.json":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "fan analyze system_root_cp1.json":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "fan analyze affine2.json --degrees 5,7,5,12 --n 2 --e1":
        "13cbeeccfc04562b06d32e1bf813268da49c4ec3b78602e8fa53c4b37a76d9e2",
    "fan analyze bad_line.json --degrees 5,7,5,12 --n 2 --e1":
        "6c435c18b142b91b4851050f46af8ebc727b228b839f5921f68e3329d6b391a9",
    "fan analyze complex_ring.json --degrees 5,7,5,12 --n 2 --e1":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "fan analyze cp1.json --degrees 5,7,5,12 --n 2 --e1":
        "13cbeeccfc04562b06d32e1bf813268da49c4ec3b78602e8fa53c4b37a76d9e2",
    "fan analyze cp2.json --degrees 5,7,5,12 --n 2 --e1":
        "81b24f171695ea63808812e36691e4e6a969f6f0f6c5f46df78f1b123687542c",
    "fan analyze cp3.json --degrees 5,7,5,12 --n 2 --e1":
        "4b256a384cb53ca2b5dfbca0a92605e0a05c55ae275b3ac1dc8e7b744b07287e",
    "fan analyze hirzebruch1.json --degrees 5,7,5,12 --n 2 --e1":
        "a3c0cc891438060b2b7dc3b49ed016b937bf98be226a31e597a9417557b5da8f",
    "fan analyze hirzebruch2.json --degrees 5,7,5,12 --n 2 --e1":
        "11c8d23d0c62538e161249ede35271809c8d6d5eea4c919749e50cc12b635f7b",
    "fan analyze hirzebruch3.json --degrees 5,7,5,12 --n 2 --e1":
        "4043055248ffbe36ea935c623af27116eac9c14eb264a42c3f9c3cc47e666a3f",
    "fan analyze system_generic_cp1.json --degrees 5,7,5,12 --n 2 --e1":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "fan analyze system_planted_cp1.json --degrees 5,7,5,12 --n 2 --e1":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "fan analyze system_root_cp1.json --degrees 5,7,5,12 --n 2 --e1":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "fan validate affine2.json": "913935b7951535c3e3b57738b9513d871c145134e6b21a2b1e16ad5f1124929e",
    "fan validate bad_line.json": "53eb8a879882234aac34e916162044a42053649933a00ec03a10340656e63278",
    "fan validate complex_ring.json":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "fan validate cp1.json": "21723b6af1c81df190867ff76f2090229caf7c639d1043c523057badb2c73a8e",
    "fan validate cp2.json": "4e186a960d115d2bf76898f30ea52d9bae87b0d8f6967a5b523b79ed3d64bc0a",
    "fan validate cp3.json": "b0449c65bfcef954e3b3a2240d6d416a28f69dc4bd1bfa5595793aab27e3212e",
    "fan validate hirzebruch1.json": "a8f2ec24230437c5feba4a1ced5a7da751873126dea29c25ff7fbbe083b092af",
    "fan validate hirzebruch2.json": "dbc89b49b0082d38e1bd7b72d5320bce1d4ab947ed3cda5697f826ce9e552899",
    "fan validate hirzebruch3.json": "82b710a94210311c6fde0acf9d1fa0b55d94bc7799562cefd1e37509065043e3",
    "fan validate system_generic_cp1.json":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "fan validate system_planted_cp1.json":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "fan validate system_root_cp1.json":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "fan power affine2.json --n 2": "ecd3a09936b3bbb109337efe85817a8ed45ae3ae33ffabb6ba201dc2e4477dc1",
    "fan power bad_line.json --n 2": "6c435c18b142b91b4851050f46af8ebc727b228b839f5921f68e3329d6b391a9",
    "fan power complex_ring.json --n 2":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "fan power cp1.json --n 2": "d8198620a095b3aece990e1bd22a33d3a5fc88d9cffffa8f44829879e7fef59b",
    "fan power cp2.json --n 2": "c652bc59ecd7194b42f6fce4645360dd15876a4bd34f7119d526e0ed60fd3681",
    "fan power cp3.json --n 2": "db4461dcf6ea54ee81691f9a7371222e6aa185ee6f5db0978f26b27a1a035656",
    "fan power hirzebruch1.json --n 2":
        "750b1d0f842bc465e6b1e9ad36fb01a20be2cfc59f272e1cb0cbc6a489da4e47",
    "fan power hirzebruch2.json --n 2":
        "1210eda178765b6e3893570511be5b08cdeef0c027b9f6f8b97ce8c68d638e92",
    "fan power hirzebruch3.json --n 2":
        "1319e4d648e1cb03167adcea99193ea2e26ba2d728a2a38d83e281e6fb0e2b42",
    "fan power system_generic_cp1.json --n 2":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "fan power system_planted_cp1.json --n 2":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "fan power system_root_cp1.json --n 2":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "complex power affine2.json --n 2":
        "9f0e6082ea9aa03c9ec91d2454923a3c799580c403c35968cad97ad18de92cff",
    "complex power bad_line.json --n 2":
        "e7a7a73b00da77d85f2f51d5743fb4b0335fcada68cdf6d7849fe93e6adf26bd",
    "complex power complex_ring.json --n 2":
        "838cbc3ea67b973cb152bd28b4eb466e7200d8d5f3cdec53f520e10fb6a9875b",
    "complex power cp1.json --n 2": "8062ea6a45ddc1c38210de7bbfacf6146c0e228a6882ec7f25ee0ef4856fa301",
    "complex power cp2.json --n 2": "6f1a56dd51ae0e1acbced44dc94337313107c742ef3582827ebbdd8bcbe71586",
    "complex power cp3.json --n 2": "a600bf0fd22445590b4c6754e451dad5e0e68a6406ce169941b5e521d54123b3",
    "complex power hirzebruch1.json --n 2":
        "3bd5f7cea762c57ccc47a4bdd936dc08865bdbf43e0f5344ff8bac461f716c7b",
    "complex power hirzebruch2.json --n 2":
        "92abcf95236d371f3cae71fa3ba0be2842f8e6dc3d28b0eb2c0ba7f0c482320c",
    "complex power hirzebruch3.json --n 2":
        "5bd67881d20afc96cecb276aaef55ab51dbc0053b5ed5eae49d005f02565accb",
    "complex power system_generic_cp1.json --n 2":
        "ac645e97add82e12c9c1be31f6cd2f2edfefdb3269339cd4366c8d44f6cdcd60",
    "complex power system_planted_cp1.json --n 2":
        "ac645e97add82e12c9c1be31f6cd2f2edfefdb3269339cd4366c8d44f6cdcd60",
    "complex power system_root_cp1.json --n 2":
        "ac645e97add82e12c9c1be31f6cd2f2edfefdb3269339cd4366c8d44f6cdcd60",
    "complex primitives affine2.json":
        "d80b9edb3f63db20f493d196bf72183f9dd85cafc4d06b6370c9c7c631a0f955",
    "complex primitives bad_line.json":
        "0b9e573a03c94eb8bc8a3342d134875045b733952e2dd68cd2ffeb8c13e4f298",
    "complex primitives complex_ring.json":
        "798db7259113ec7d7ffda5d8dbac0a5e64bff89084b38800bee1a838cb9a35f3",
    "complex primitives cp1.json": "e893371bc4473449feca460c74e029f868f7c74d3c8be25347c3e97475851b6a",
    "complex primitives cp2.json": "2ae19b4b01d9b793d485ac8c8f05686b131e1f95897d5a3794217be5e935b615",
    "complex primitives cp3.json": "e625d46b4f75bdd4fc29db56ec6c700a13e29132e38b05c8394ee05a0f8b062a",
    "complex primitives hirzebruch1.json":
        "47fbe96621984d4ffc34e50b8936950b50c3f05a35c2f9aa4708294a73c5f711",
    "complex primitives hirzebruch2.json":
        "b971119c8a707d5440ddd4123ac15eee20a5f31f5dff9c8b6054969a4179201d",
    "complex primitives hirzebruch3.json":
        "1089f755a7cb4c17c220dad51008cd66c3e33ca43f31e09fb2340b69ad18664a",
    "complex primitives system_generic_cp1.json":
        "ac645e97add82e12c9c1be31f6cd2f2edfefdb3269339cd4366c8d44f6cdcd60",
    "complex primitives system_planted_cp1.json":
        "ac645e97add82e12c9c1be31f6cd2f2edfefdb3269339cd4366c8d44f6cdcd60",
    "complex primitives system_root_cp1.json":
        "ac645e97add82e12c9c1be31f6cd2f2edfefdb3269339cd4366c8d44f6cdcd60",
    "poly check --fan affine2.json --system system_planted_cp1.json --n 2":
        "4a7afbd52852630372bd5e82211cc8ecf570d4242b92f07590304e5715f3cadb",
    "poly check --fan bad_line.json --system system_planted_cp1.json --n 2":
        "6c435c18b142b91b4851050f46af8ebc727b228b839f5921f68e3329d6b391a9",
    "poly check --fan complex_ring.json --system system_planted_cp1.json --n 2":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "poly check --fan cp1.json --system system_planted_cp1.json --n 2":
        "566041fca0c9be6fa90eb796b3deefe8d5e956ca71f508b06f88f9e76d50f8db",
    "poly check --fan cp2.json --system system_planted_cp1.json --n 2":
        "a237bdc03b04d3745635561a20798934c1478aa1a1c3fd5ea48aa6bd05485545",
    "poly check --fan cp3.json --system system_planted_cp1.json --n 2":
        "24dabc33f75f2b44705380e2fed9d195d99ff02f2759cf9a51ff27218d0f2c0f",
    "poly check --fan hirzebruch1.json --system system_planted_cp1.json --n 2":
        "24dabc33f75f2b44705380e2fed9d195d99ff02f2759cf9a51ff27218d0f2c0f",
    "poly check --fan hirzebruch2.json --system system_planted_cp1.json --n 2":
        "24dabc33f75f2b44705380e2fed9d195d99ff02f2759cf9a51ff27218d0f2c0f",
    "poly check --fan hirzebruch3.json --system system_planted_cp1.json --n 2":
        "24dabc33f75f2b44705380e2fed9d195d99ff02f2759cf9a51ff27218d0f2c0f",
    "poly check --fan system_generic_cp1.json --system system_planted_cp1.json --n 2":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "poly check --fan system_planted_cp1.json --system system_planted_cp1.json --n 2":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "poly check --fan system_root_cp1.json --system system_planted_cp1.json --n 2":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "poly check --fan cp1.json --system affine2.json --n 2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly check --fan cp1.json --system bad_line.json --n 2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly check --fan cp1.json --system complex_ring.json --n 2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly check --fan cp1.json --system cp1.json --n 2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly check --fan cp1.json --system cp2.json --n 2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly check --fan cp1.json --system cp3.json --n 2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly check --fan cp1.json --system hirzebruch1.json --n 2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly check --fan cp1.json --system hirzebruch2.json --n 2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly check --fan cp1.json --system hirzebruch3.json --n 2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly check --fan cp1.json --system system_generic_cp1.json --n 2":
        "4a97ee56eae0162d91f337048a13623b1a45e160768880d3e7c7ee11caed4439",
    "poly check --fan cp1.json --system system_root_cp1.json --n 2":
        "bf4c74e5cd56ef515fb2da7c36d47b51ce1e902f3f3cce7b432bebe103cf9854",
    "poly stabilize --system affine2.json --a 1,2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly stabilize --system bad_line.json --a 1,2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly stabilize --system complex_ring.json --a 1,2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly stabilize --system cp1.json --a 1,2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly stabilize --system cp2.json --a 1,2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly stabilize --system cp3.json --a 1,2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly stabilize --system hirzebruch1.json --a 1,2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly stabilize --system hirzebruch2.json --a 1,2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly stabilize --system hirzebruch3.json --a 1,2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly stabilize --system system_generic_cp1.json --a 1,2":
        "2f64674a68f97b24a147fba5ca62e4ea18147671c27d36ee8e7b0341678064bb",
    "poly stabilize --system system_planted_cp1.json --a 1,2":
        "2f64674a68f97b24a147fba5ca62e4ea18147671c27d36ee8e7b0341678064bb",
    "poly stabilize --system system_root_cp1.json --a 1,2":
        "2cfecbd0ac160b50105481e00c239febfc8941eda174ace3b493bec13568cb43",
    "poly jet --system affine2.json --n 2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly jet --system bad_line.json --n 2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly jet --system complex_ring.json --n 2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly jet --system cp1.json --n 2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly jet --system cp2.json --n 2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly jet --system cp3.json --n 2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly jet --system hirzebruch1.json --n 2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly jet --system hirzebruch2.json --n 2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly jet --system hirzebruch3.json --n 2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly jet --system system_generic_cp1.json --n 2":
        "ef89deb5d8a724b1a44b4c42865fba1c375d121d924a5a061efb9edb2ada9449",
    "poly jet --system system_planted_cp1.json --n 2":
        "0fc891c3b7c1b34ae60dab2d4736b43d0f3d4a69fd248eabfda4eccc1ee8d7d3",
    "poly jet --system system_root_cp1.json --n 2":
        "064de732cdb2848af67895a3c9cd12f247e01aba5b71e84568a89420cd4c42db",
    "stability report --fan affine2.json --degrees 5,7,5,12 --n 2":
        "13cbeeccfc04562b06d32e1bf813268da49c4ec3b78602e8fa53c4b37a76d9e2",
    "stability report --fan bad_line.json --degrees 5,7,5,12 --n 2":
        "6c435c18b142b91b4851050f46af8ebc727b228b839f5921f68e3329d6b391a9",
    "stability report --fan complex_ring.json --degrees 5,7,5,12 --n 2":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "stability report --fan cp1.json --degrees 5,7,5,12 --n 2":
        "13cbeeccfc04562b06d32e1bf813268da49c4ec3b78602e8fa53c4b37a76d9e2",
    "stability report --fan cp2.json --degrees 5,7,5,12 --n 2":
        "81b24f171695ea63808812e36691e4e6a969f6f0f6c5f46df78f1b123687542c",
    "stability report --fan cp3.json --degrees 5,7,5,12 --n 2":
        "476c162ffc0f21c4a2a84845423a50114ad31a8db3d4c3325b7585087b92378c",
    "stability report --fan hirzebruch1.json --degrees 5,7,5,12 --n 2":
        "4dd1b387b4d6acde4a69b8e56d15c75937772d7547bd30ba7bc7ee0d5da6d11d",
    "stability report --fan hirzebruch2.json --degrees 5,7,5,12 --n 2":
        "15cd30b908ea59943d4803555abd7402b6e6be02e1dc95451d014ec2ef65f6c6",
    "stability report --fan hirzebruch3.json --degrees 5,7,5,12 --n 2":
        "d2d76db7f170c6d414c881045498fbe136869e000fd4fa380c5799a3143f0d08",
    "stability report --fan system_generic_cp1.json --degrees 5,7,5,12 --n 2":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "stability report --fan system_planted_cp1.json --degrees 5,7,5,12 --n 2":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "stability report --fan system_root_cp1.json --degrees 5,7,5,12 --n 2":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "stability e1 --fan affine2.json --degrees 5,7,5,12 --n 2 --s-max 8":
        "13cbeeccfc04562b06d32e1bf813268da49c4ec3b78602e8fa53c4b37a76d9e2",
    "stability e1 --fan bad_line.json --degrees 5,7,5,12 --n 2 --s-max 8":
        "6c435c18b142b91b4851050f46af8ebc727b228b839f5921f68e3329d6b391a9",
    "stability e1 --fan complex_ring.json --degrees 5,7,5,12 --n 2 --s-max 8":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "stability e1 --fan cp1.json --degrees 5,7,5,12 --n 2 --s-max 8":
        "13cbeeccfc04562b06d32e1bf813268da49c4ec3b78602e8fa53c4b37a76d9e2",
    "stability e1 --fan cp2.json --degrees 5,7,5,12 --n 2 --s-max 8":
        "81b24f171695ea63808812e36691e4e6a969f6f0f6c5f46df78f1b123687542c",
    "stability e1 --fan cp3.json --degrees 5,7,5,12 --n 2 --s-max 8":
        "2745682477bed00669fa54b45285dd343eeaff8ed9b90f8c348a04a0d06929b0",
    "stability e1 --fan hirzebruch1.json --degrees 5,7,5,12 --n 2 --s-max 8":
        "4f828e96ee5a01121f960cdfd8ae1c37961cc8c561aa4572be975467c314297f",
    "stability e1 --fan hirzebruch2.json --degrees 5,7,5,12 --n 2 --s-max 8":
        "1c05f34fd2431397f62f033b3fcd98ef579aa3e8390f1182fe891c6f9980b1bb",
    "stability e1 --fan hirzebruch3.json --degrees 5,7,5,12 --n 2 --s-max 8":
        "4aaa9e27043267430bf11ac97a76524bb2fa7d677f7d62f94fb0eaf07fd50e8e",
    "stability e1 --fan system_generic_cp1.json --degrees 5,7,5,12 --n 2 --s-max 8":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "stability e1 --fan system_planted_cp1.json --degrees 5,7,5,12 --n 2 --s-max 8":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "stability e1 --fan system_root_cp1.json --degrees 5,7,5,12 --n 2 --s-max 8":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "--version": "761fd90b184a445a07987104035364caba85ae039841f87e81a8ee835eb767b6",
    "--help": "9a0466fdab09b019da1eb19984ef4d28a13910de4240085637ec11da19dba0ec",
    "nope": "e552aa8ccc9fc810c31f59e7c84b49ffbb4f66590b2232d446a6269e39efe57d",
    "fan": "7d90371216227e871dd500daa8cf4b949cc403f4824803bdbeaa119392266271",
    "oracle": "980fb17c188be7426d51afa625270bac7b3a3391deb04b941179b6640dd949ae",
    "fan nope": "b6f35216d17dda15a08e039c18545aeb1e69afa29185b924e7b05247828e5819",
    "oracle nope": "91b30f9df26bd2a7f64e4eff8cf0f269644302a7068febca34d72cab9a46b663",
    "fan --help": "0f487bab0d6464e82351c71da9bd7e2e639c67564506aa9856973356cdb73496",
    "fan analyze --help": "a69ef21e2c0eacce9df76d5451cfa879d434a809339a7b928996eb010198add7",
    "poly stabilize --help": "480533d00fee7d25b401dbdc4d7dc27ad216784c8e132cf41ce8636db1e2b312",
    "stability e1 --help": "7ea7f02ed90890dbc7003a73e3ae3d00823899b1007ebe086ee940292180b441",
    "fan analyze hirzebruch1.json --n 3":
        "847e4df34a604afc0a6be09e6b71c684b23f12cd56a965c8bc689124ed6ce2a8",
    "fan analyze hirzebruch1.json --e1":
        "64b6ac54dbb093e2dc93d63e4482f0077d18ca1fe93c2d0c413b3547e9f14359",
    "fan analyze bad_line.json --n 3":
        "847e4df34a604afc0a6be09e6b71c684b23f12cd56a965c8bc689124ed6ce2a8",
    "fan analyze hirzebruch1.json --degrees 5,7,5,12":
        "1a7ae3fb42b242dabf17af606b52078610b0caacf48494bbdc20c2666cfb5753",
    "fan analyze hirzebruch1.json --degrees 5,7,5,12 --n 1":
        "1ba46afa7afbe3df85a6bc017604b7cff925e7d26fd19188dfb04e0c69af7f30",
    "fan analyze hirzebruch1.json --degrees 5,7":
        "2d1dc81b6ba9b2f439adf1fdc725051f83763ec1cdbbee4bf1aec1784341a9e1",
    "fan analyze hirzebruch1.json --degrees 0,7,5,12":
        "7db40b8f02330cf906faa3fa7c9756c94731e67774db4157fd723be303502ecc",
    "fan analyze hirzebruch1.json --degrees 5,x,5,12":
        "523f697358155a0dc36b2ca87e0704809494e6804626dda003a25a707fc24198",
    "fan analyze bad_line.json --degrees 5,x":
        "6c435c18b142b91b4851050f46af8ebc727b228b839f5921f68e3329d6b391a9",
    "fan analyze hirzebruch1.json --degrees=-1,7,5,12":
        "7db40b8f02330cf906faa3fa7c9756c94731e67774db4157fd723be303502ecc",
    "stability report --fan hirzebruch1.json --degrees 5,7,5,12 --n 1":
        "254eab7e22d3ccded7e9a071b0e9a0ab56bd836fac36ccabf86cc604eaa87da6",
    "stability report --fan hirzebruch1.json --degrees 5,7 --n 2":
        "2d1dc81b6ba9b2f439adf1fdc725051f83763ec1cdbbee4bf1aec1784341a9e1",
    "stability report --fan hirzebruch1.json --degrees 5,7 --n 1":
        "2d1dc81b6ba9b2f439adf1fdc725051f83763ec1cdbbee4bf1aec1784341a9e1",
    "stability report --fan hirzebruch1.json --degrees 0,7,5,12 --n 2":
        "7db40b8f02330cf906faa3fa7c9756c94731e67774db4157fd723be303502ecc",
    "stability report --fan hirzebruch1.json --degrees 0,7,5,12 --n 1":
        "7db40b8f02330cf906faa3fa7c9756c94731e67774db4157fd723be303502ecc",
    "stability report --fan hirzebruch1.json --degrees x --n 2":
        "3d937256ee90534a5c2f519d5c7778a6b43b441dc6819bb9e5f76aaf88e2f523",
    "stability report --fan hirzebruch1.json --degrees=-1,7,5,12 --n 2":
        "7db40b8f02330cf906faa3fa7c9756c94731e67774db4157fd723be303502ecc",
    "stability report --fan affine2.json --degrees 5,7 --n 2":
        "4082b6fe5402b0323928a9cc36532603e5a215941599a2ab2aa9e855b8fd4c2d",
    "stability report --fan hirzebruch1.json --degrees 5,7,5,12":
        "f532a9b87e446964d4e8b701a6246d23fedbbae0eb20a38fe5fe98c3d757fb4c",
    "stability e1 --fan hirzebruch1.json --degrees 5,7,5,12 --n 1":
        "3a55b2ca05ad50e8260c77e247334ba65e7df89106e19667892b06b6abaf914e",
    "stability e1 --fan hirzebruch1.json --degrees 5,7 --n 1":
        "2d1dc81b6ba9b2f439adf1fdc725051f83763ec1cdbbee4bf1aec1784341a9e1",
    "stability e1 --fan hirzebruch1.json --degrees 0,7,5,12 --n 3":
        "7db40b8f02330cf906faa3fa7c9756c94731e67774db4157fd723be303502ecc",
    "stability e1 --fan hirzebruch1.json --degrees 5,7,5,12 --n 2 --table":
        "c1678f6220facb86caf4aff4499e4408d945d6fb087de2516fcaeeab3fbffdc0",
    "stability e1 --fan hirzebruch1.json --degrees 5,7,5,12 --n 2 --s-max 8 --table":
        "219f26979ea4fb2851dc02606dd1ada957275fef074d773002f48b2ce924a490",
    "stability e1 --fan hirzebruch1.json --degrees 5,7,5,12 --n 2 --s-max -1":
        "d4bb3263ba250c681b8a202ed72704c535994d9bf828bb317220cdf1f96203d6",
    "poly stabilize --system system_root_cp1.json --a 1,x":
        "205922e7a31f79a3727756e1bb200297545ec1733e47cec39a5e8058cb98a6b8",
    "poly stabilize --system system_root_cp1.json --a 1":
        "dc72820e3be3e896ace1c4563707da7c6ef2de2f9d84c6f1ef3be0c67d26a549",
    "poly stabilize --system system_root_cp1.json --a 0,0":
        "a9ac99d194e3fbc4ec1733d0f4c722b16a485aaf2fe8eef7f259220aa9b68802",
    "poly stabilize --system system_root_cp1.json --a=-1,1":
        "68807f7b200ba380ea8d6266d9e6c5f105d0f1e8f02a5db796340a98f9212799",
    "poly check --fan cp1.json --n 2":
        "449646cced9a4a0b97c2d7293ff17b6851fc6ca027b098f2f1cd14df4b74f67e",
    "poly check --fan cp1.json --system system_planted_cp1.json --n 1":
        "b999cd970e105bda3daef7c863276126593c9a51fab49f0b5077f9829412122a",
    "poly check --fan cp1.json --system system_generic_cp1.json --n 5":
        "3640768fe7c2c53dcce3721a9b288af49c9402ab33876ab87dabfcaa6e5faf4b",
    "poly jet --system system_generic_cp1.json --n 1":
        "5aca5d9d4e0b71448475f89bd82dc47031d6c05db75d363b757d21f6051173d1",
    "fan power cp1.json": "7cfa04a22dbd7134daaa430e9d1374f3f8d1dd255fe29af7b3ac586e1189a14d",
    "fan power cp1.json --n 1": "91475b02e06b7143e436cd28f9e4d9b9ffe8db06a86cdc7bb3ad624cf36dcbd2",
    "fan power hirzebruch1.json --n 200":
        "9681ad98eadaff1a979726010d47047b8a113b955832589d874d38c9b5930eaf",
    "complex power complex_ring.json --n 1":
        "ff3278653cd3948bcec7cef2570e48184869568b3609e4bd9cc825da25333668",
    "fan validate nope.json": "0dbfe779f4e760aec2961a2fc365f7af485d033aa7cce9dc3a5b9d13078f2e9c",
    "oracle band --bogus": "c8ec1e836801359a48e32b970f1edf8aefbc596f830bc3e12f075dd998f7820c",
    "oracle band --trials 70000": "1eb914d34f4cb0683621c3298f319d457564155d4088e00a751b2261875a63a3",
}
ORACLE_DIGESTS = {
    "vandermonde --trials 3 --seed 4":
        "8d4f2e8a88d58dd7b363ef9c85537fcf9b8bdaed1a27e09c77560a43941d8208",
    "vandermonde --k 2 --n 2 --d 5 --trials 2":
        "4f5bdb4727718bf997a93503cbe59a42e72b42ebfc7c21f722e32b0b78791f4e",
    "vandermonde --k 2": "96e0aaa50b9d782f188e9b828e66384289450253814df71f269d17821f939d29",
    "band --trials 3 --seed 2": "1d230661c86bd06dfd49a5d4415f3b06e02d86c7ddb60dc1d4ccb1604c76c3f1",
    "band": "46e82d8a834e4f9f04745caede6a6a634dbe56c541f271a1b79b28d3583e2a56",
    "complement --trials 5": "8d43d4130d9ca0ba7ea2ed25aa52997b0c880220dba024c4bd7a8b0a28416e52",
    "jetsection --trials 4 --seed 9":
        "13871b6937af65921b842edd47ce6de818795a69f39f79b05e3edc52671a0fd2",
    "jetsection": "f09efe1800af273bfc0cf03ae8e8aee75512f62b35f9fb6d49b4f5903eabf39e",
    "complement": "fc6da64b8064b7df18af4537ae3b5df1fff693715067a4794481d6fd081dfd0a",
    "vandermonde --trials 2 --seed 1 --k 2 --n 2 --d 3":
        "5836d4f5f26ceb938ff9f1200fe06169c999b72b183f1dc9c9ff76ba5db3fadd",
}


def digest(argv):
    """sha256 of one entry's (exit code, stdout, stderr), run in the current
    directory."""
    argv = [f"fixtures/{a}" if a.endswith(".json") else a for a in argv.split()]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    result = (code, out.getvalue(), err.getvalue())
    return hashlib.sha256(json.dumps(result).encode("utf-8")).hexdigest()


def replay():
    """Run every entry from the repository root; 0 when all match."""
    os.chdir(ROOT)
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal width
    entries = {**COMMAND_DIGESTS, **{"oracle " + k: v for k, v in ORACLE_DIGESTS.items()}}
    differ = [argv for argv, pinned in entries.items() if digest(argv) != pinned]
    for argv in differ:
        print(f"differs: {argv}")
    print(f"{len(entries) - len(differ)}/{len(entries)} pinned digests match on "
          f"{platform.python_implementation()} {platform.python_version()}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(replay())
