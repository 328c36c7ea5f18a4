"""Byte-identical outputs: the CLI pipeline on the bundled pendulum, pinned
by sha256.

A change that alters an output on purpose re-takes these pins (run the
pipeline below and print the digests) and says why in CHANGES.md.
"""

import hashlib
import os

from symquant import cli

# command, its output file, its --in file
PIPELINE = (("abstract", "m.abs", None), ("synthesize", "ctrl.txt", "m.abs"),
            ("verify", "verify.txt", "m.abs"), ("plan", "plan.txt", "m.abs"),
            ("export", "graph.dot", "m.abs"),
            ("simulate", "traj.csv", "plan.txt"))

STDOUT_SHA256 = {
    "abstract": "462de7486fa11cbb72ff106454ab869b88acf451c48d356d78eb3ba71126e253",
    "synthesize": "0d2d0aaa67baede2c292adf4d98c03a07e106eac985405e6b22f3529a7ed8922",
    "verify": "7fc57556009f23021957da743bdc56ed3542e36e9765be585908a02514260199",
    "plan": "5726722f678c973387ed7a71fcf77f73565a66d178841916370630dc171b34e8",
    "export": "a058658a8051ef009200416adee539ae6df75c8663e088ff24b668da92cef974",
    "simulate": "bc1c21efb5aa4cba5f21453318b813a3d7e24cb3b42667bad69559f2b8f41df3",
}

FILE_SHA256 = {
    "m.abs": "5e2d4e2b4fa15d664b55a411ebb3b601752a7b032f55a6788032e9ff6956fd8f",
    "ctrl.txt": "c4229ea8c62d58f4afaa6ac45369a2d7eea8d279f3e121f75f363c802a23fade",
    "ctrl.txt.summary": "0d2d0aaa67baede2c292adf4d98c03a07e106eac985405e6b22f3529a7ed8922",
    "verify.txt": "7fc57556009f23021957da743bdc56ed3542e36e9765be585908a02514260199",
    "plan.txt": "840572752982e43cb479332028300bccabf536abf248fd88afb163b86a04b021",
    "traj.csv": "4ed258a063d1f0d5a08536322bfafcc19df3022b7721da286758dcbbf43aef05",
    "graph.dot": "cc95ff57121236998839b8ad7d8fd305a90dc7b95503987445bfc2ca5e3ecc8f",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_pipeline_outputs_are_pinned(tmp_path, monkeypatch, capsys):
    # relative paths, so that no output holds the directory's name, and
    # the bundled scenario as it ships, with no environment override
    monkeypatch.chdir(tmp_path)
    for name in os.environ:
        if name.startswith("SYMQUANT_"):
            monkeypatch.delenv(name)
    stdout = {}
    for command, out, infile in PIPELINE:
        argv = [command, "--config", "pendulum", "--out", out]
        capsys.readouterr()
        assert cli.main(argv + (["--in", infile] if infile else [])) == 0
        stdout[command] = _sha256(capsys.readouterr().out.encode())
    assert stdout == STDOUT_SHA256
    assert {name: _sha256((tmp_path / name).read_bytes())
            for name in FILE_SHA256} == FILE_SHA256
