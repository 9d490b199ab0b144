"""Toolkit for the CERIF-RDF research-information dialect.

Records (projects, persons, org-units) travel as restricted RDF/XML, embed
into web pages, convert from a legacy SGML export, ship under structured
exchange file names and gather into a queryable triple store.

The package root exports nothing: import each name from the module that
defines it, such as cerifrdf.rdfxml, cerifrdf.validation, cerifrdf.exchange,
cerifrdf.store, cerifrdf.htmlbridge or cerifrdf.sgml.
"""

__version__ = "0.1.0"
