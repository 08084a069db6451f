from setuptools import setup

setup(extras_require={"test": ["pytest", "hypothesis"]})
