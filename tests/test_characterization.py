"""Exact output of each record kind, pinned with literal strings.

One fully populated record per kind pins the serializer text and the HTML
table rows; records with several breaches pin the ordered validator output
and the discard line it leads to; small documents pin the parse warnings
for repeated, alias-spelled and unknown field elements.
"""

import pytest

from cerifrdf.htmlbridge import render_html
from cerifrdf.model import (
    Contact,
    ExpertSkill,
    OrgUnit,
    OuOuRelation,
    PartialDate,
    Person,
    Project,
    ProjectStatus,
    RecordKey,
    Relation,
    TranslatedText,
    TranslationType,
)
from cerifrdf.rdfxml import RecordSet, parse_document, serialize_document
from cerifrdf.validation import apply_discard_cascade, validate_record

H, O, M = TranslationType.HUMAN, TranslationType.ORIGINAL, TranslationType.MACHINE
_P1 = RecordKey("project", "P-1")

FULL_PROJECT = Project(
    id="P-1", status=ProjectStatus.COMPLETED, start=PartialDate(2000, 2),
    end=PartialDate(2001, 12, 31), uri="http://example.org/p?a=1&b=2",
    prize_awards=("Gold", "Silver <2nd>"),
    titles=(TranslatedText("de", O, "Forschung & Entwicklung"),
            TranslatedText("en", H, "Research")),
    abstracts=(TranslatedText("en", H, 'An "abstract"'),),
    keywords=(TranslatedText("en", M, "rdf; cerif"),),
    relations=(Relation(_P1, RecordKey("person", "273"), "contact"),
               Relation(_P1, RecordKey("orgunit", "TU"), "funds", mandatory=True)))

FULL_PERSON = Person(
    id="273", family_names="Niedermayer", first_names="Eva Maria", sex="F",
    prize_awards=("Award",), uri="http://example.org/~en",
    expert_skills=(ExpertSkill("databases"), ExpertSkill("RDF", role="lead")),
    contacts=(Contact(telephone="+43 1 58801", email="en@example.org",
                      uri="http://example.org/c"),
              Contact(email="x@example.org")))

FULL_ORGUNIT = OrgUnit(
    id="TU.IFS", acronym="IFS", prize_award="Prize", url="http://example.org/ifs",
    names=(TranslatedText("de", O, "Institut"), TranslatedText("en", H, "Institute")),
    ou_relations=(OuOuRelation("TU", "parent"),),
    expert_skills=(ExpertSkill("software", role="research-field"),),
    descriptions=(TranslatedText("en", H, "Describes <it>"),))

_HEAD = """\
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
    xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
    xmlns:cerif="http://derpi.tuwien.ac.at/~andrei/cerif-rdf#">
"""

PROJECT_TEXT = _HEAD + """\
  <cerif:project ID="P-1">
    <cerif:proj_status>Completed</cerif:proj_status>
    <cerif:proj_startdate>02.2000</cerif:proj_startdate>
    <cerif:proj_enddate>31.12.2001</cerif:proj_enddate>
    <cerif:proj_uri>http://example.org/p?a=1&amp;b=2</cerif:proj_uri>
    <cerif:proj_prizeaward>Gold; Silver &lt;2nd&gt;</cerif:proj_prizeaward>
    <cerif:project-titles>
      <rdf:Bag>
        <rdf:li>
          <cerif:Project-title>
            <cerif:proj_title_language>de</cerif:proj_title_language>
            <cerif:proj_title_trans_type>O</cerif:proj_title_trans_type>
            <cerif:proj_title>Forschung &amp; Entwicklung</cerif:proj_title>
          </cerif:Project-title>
        </rdf:li>
        <rdf:li>
          <cerif:Project-title>
            <cerif:proj_title_language>en</cerif:proj_title_language>
            <cerif:proj_title_trans_type>H</cerif:proj_title_trans_type>
            <cerif:proj_title>Research</cerif:proj_title>
          </cerif:Project-title>
        </rdf:li>
      </rdf:Bag>
    </cerif:project-titles>
    <cerif:project-abstracts>
      <rdf:Bag>
        <rdf:li>
          <cerif:Project-abstract>
            <cerif:proj_abs_language>en</cerif:proj_abs_language>
            <cerif:proj_abs_trans_type>H</cerif:proj_abs_trans_type>
            <cerif:proj_abstract>An "abstract"</cerif:proj_abstract>
          </cerif:Project-abstract>
        </rdf:li>
      </rdf:Bag>
    </cerif:project-abstracts>
    <cerif:project-keywords>
      <rdf:Bag>
        <rdf:li>
          <cerif:Project-keyword>
            <cerif:proj_kw_language>en</cerif:proj_kw_language>
            <cerif:proj_kw_trans_type>M</cerif:proj_kw_trans_type>
            <cerif:proj_keywords>rdf; cerif</cerif:proj_keywords>
          </cerif:Project-keyword>
        </rdf:li>
      </rdf:Bag>
    </cerif:project-keywords>
    <cerif:project-relations>
      <rdf:Bag>
        <rdf:li>
          <cerif:Project-relation>
            <cerif:rel.from.project resource="P-1"/>
            <cerif:rel.to.person resource="273"/>
            <cerif:rel.role>contact</cerif:rel.role>
          </cerif:Project-relation>
        </rdf:li>
        <rdf:li>
          <cerif:Project-relation>
            <cerif:rel.from.project resource="P-1"/>
            <cerif:rel.to.orgunit resource="TU"/>
            <cerif:rel.role>funds</cerif:rel.role>
            <cerif:rel.mandatory>true</cerif:rel.mandatory>
          </cerif:Project-relation>
        </rdf:li>
      </rdf:Bag>
    </cerif:project-relations>
  </cerif:project>
</rdf:RDF>
"""

PERSON_TEXT = _HEAD + """\
  <cerif:person ID="273">
    <cerif:person.per_family_names>Niedermayer</cerif:person.per_family_names>
    <cerif:person.per_first_names>Eva Maria</cerif:person.per_first_names>
    <cerif:person.per_sex>F</cerif:person.per_sex>
    <cerif:person.per_prize_awards>Award</cerif:person.per_prize_awards>
    <cerif:person.per_uri>http://example.org/~en</cerif:person.per_uri>
    <cerif:person.expert_skills>
      <rdf:Bag>
        <rdf:li>
          <cerif:person.expert_skill>
            <cerif:person.es.id>databases</cerif:person.es.id>
          </cerif:person.expert_skill>
        </rdf:li>
        <rdf:li>
          <cerif:person.expert_skill>
            <cerif:person.es.role>lead</cerif:person.es.role>
            <cerif:person.es.id>RDF</cerif:person.es.id>
          </cerif:person.expert_skill>
        </rdf:li>
      </rdf:Bag>
    </cerif:person.expert_skills>
    <cerif:person.contacts>
      <rdf:Bag>
        <rdf:li>
          <cerif:contact>
            <cerif:contact.telephone>+43 1 58801</cerif:contact.telephone>
            <cerif:contact.email>en@example.org</cerif:contact.email>
            <cerif:contact.uri>http://example.org/c</cerif:contact.uri>
          </cerif:contact>
        </rdf:li>
        <rdf:li>
          <cerif:contact>
            <cerif:contact.email>x@example.org</cerif:contact.email>
          </cerif:contact>
        </rdf:li>
      </rdf:Bag>
    </cerif:person.contacts>
  </cerif:person>
</rdf:RDF>
"""

ORGUNIT_TEXT = _HEAD + """\
  <cerif:orgunit ID="TU.IFS">
    <cerif:orgunit.org_acronym>IFS</cerif:orgunit.org_acronym>
    <cerif:orgunit.org_prizeaward>Prize</cerif:orgunit.org_prizeaward>
    <cerif:orgunit.org_url>http://example.org/ifs</cerif:orgunit.org_url>
    <cerif:orgunit.orgunit_names>
      <rdf:Bag>
        <rdf:li>
          <cerif:orgunit.orgunit_name>
            <cerif:orgunit.oun.language>de</cerif:orgunit.oun.language>
            <cerif:orgunit.oun.translation>O</cerif:orgunit.oun.translation>
            <cerif:orgunit.oun.name>Institut</cerif:orgunit.oun.name>
          </cerif:orgunit.orgunit_name>
        </rdf:li>
        <rdf:li>
          <cerif:orgunit.orgunit_name>
            <cerif:orgunit.oun.language>en</cerif:orgunit.oun.language>
            <cerif:orgunit.oun.translation>H</cerif:orgunit.oun.translation>
            <cerif:orgunit.oun.name>Institute</cerif:orgunit.oun.name>
          </cerif:orgunit.orgunit_name>
        </rdf:li>
      </rdf:Bag>
    </cerif:orgunit.orgunit_names>
    <cerif:orgunit.ou_ou_relations>
      <rdf:Bag>
        <rdf:li>
          <cerif:orgunit.ou_ou_relation>
            <cerif:orgunit.ou_ou_r.orgunit resource="TU"/>
            <cerif:orgunit.ou_ou_r.role>parent</cerif:orgunit.ou_ou_r.role>
          </cerif:orgunit.ou_ou_relation>
        </rdf:li>
      </rdf:Bag>
    </cerif:orgunit.ou_ou_relations>
    <cerif:orgunit.expert_skills>
      <rdf:Bag>
        <rdf:li>
          <cerif:orgunit.expert_skill>
            <cerif:orgunit.es.role>research-field</cerif:orgunit.es.role>
            <cerif:orgunit.es.skill>software</cerif:orgunit.es.skill>
          </cerif:orgunit.expert_skill>
        </rdf:li>
      </rdf:Bag>
    </cerif:orgunit.expert_skills>
    <cerif:orgunit.descriptions>
      <rdf:Bag>
        <rdf:li>
          <cerif:orgunit.description>
            <cerif:orgunit.od.language>en</cerif:orgunit.od.language>
            <cerif:orgunit.od.translation>H</cerif:orgunit.od.translation>
            <cerif:orgunit.od.description>Describes &lt;it&gt;</cerif:orgunit.od.description>
          </cerif:orgunit.description>
        </rdf:li>
      </rdf:Bag>
    </cerif:orgunit.descriptions>
  </cerif:orgunit>
</rdf:RDF>
"""

PROJECT_ROWS = [
    "<tr><th>identifier</th><td>P-1</td></tr>",
    "<tr><th>status</th><td>Completed</td></tr>",
    "<tr><th>start date</th><td>02.2000</td></tr>",
    "<tr><th>end date</th><td>31.12.2001</td></tr>",
    "<tr><th>URI</th><td>http://example.org/p?a=1&amp;b=2</td></tr>",
    "<tr><th>prizes and awards</th><td>Gold; Silver &lt;2nd&gt;</td></tr>",
    "<tr><th>title (de, O)</th><td>Forschung &amp; Entwicklung</td></tr>",
    "<tr><th>title (en, H)</th><td>Research</td></tr>",
    "<tr><th>abstract (en, H)</th><td>An &quot;abstract&quot;</td></tr>",
    "<tr><th>keywords (en, M)</th><td>rdf; cerif</td></tr>",
    "<tr><th>relation</th><td>contact: project:P-1 -&gt; person:273</td></tr>",
    "<tr><th>relation</th><td>funds: project:P-1 -&gt; orgunit:TU</td></tr>",
]

PERSON_ROWS = [
    "<tr><th>identifier</th><td>273</td></tr>",
    "<tr><th>family names</th><td>Niedermayer</td></tr>",
    "<tr><th>first names</th><td>Eva Maria</td></tr>",
    "<tr><th>sex</th><td>F</td></tr>",
    "<tr><th>prizes and awards</th><td>Award</td></tr>",
    "<tr><th>URI</th><td>http://example.org/~en</td></tr>",
    "<tr><th>expert skill</th><td>databases</td></tr>",
    "<tr><th>expert skill</th><td>RDF (role: lead)</td></tr>",
    "<tr><th>contact</th><td>telephone +43 1 58801; email en@example.org; "
    "uri http://example.org/c</td></tr>",
    "<tr><th>contact</th><td>email x@example.org</td></tr>",
]

ORGUNIT_ROWS = [
    "<tr><th>identifier</th><td>TU.IFS</td></tr>",
    "<tr><th>acronym</th><td>IFS</td></tr>",
    "<tr><th>prize or award</th><td>Prize</td></tr>",
    "<tr><th>URL</th><td>http://example.org/ifs</td></tr>",
    "<tr><th>name (de, O)</th><td>Institut</td></tr>",
    "<tr><th>name (en, H)</th><td>Institute</td></tr>",
    "<tr><th>related org-unit</th><td>parent: orgunit:TU</td></tr>",
    "<tr><th>expert skill</th><td>software (role: research-field)</td></tr>",
    "<tr><th>description (en, H)</th><td>Describes &lt;it&gt;</td></tr>",
]

FULL_CASES = [
    (FULL_PROJECT, PROJECT_TEXT, PROJECT_ROWS),
    (FULL_PERSON, PERSON_TEXT, PERSON_ROWS),
    (FULL_ORGUNIT, ORGUNIT_TEXT, ORGUNIT_ROWS),
]


@pytest.mark.parametrize("record,text,rows", FULL_CASES,
                         ids=["project", "person", "orgunit"])
def test_full_record_serializes_exactly(record, text, rows):
    rs = RecordSet()
    rs.add(record)
    assert serialize_document(rs) == text


@pytest.mark.parametrize("record,text,rows", FULL_CASES,
                         ids=["project", "person", "orgunit"])
def test_full_record_html_rows_exactly(record, text, rows):
    page = render_html(record)
    assert [line for line in page.splitlines() if line.startswith("<tr>")] == rows
    assert text.rstrip("\n") in page


@pytest.mark.parametrize("record,text,rows", FULL_CASES,
                         ids=["project", "person", "orgunit"])
def test_full_record_parses_back_without_warnings(record, text, rows):
    rs, warnings = parse_document(text)
    assert warnings == []
    assert list(rs.records.values()) == [record]


BREACH_CASES = [
    (Project(id="P-2", status="Running",
             titles=(TranslatedText("deu", None, ""),),
             keywords=(TranslatedText("en", H, ""),),
             relations=(Relation(RecordKey("project", "P-2"),
                                 RecordKey("project", "P-2"), ""),)),
     [("status", "invalid", "status token 'Running' not one of the four accepted values"),
      ("abstracts", "missing", "no abstracts"),
      ("titles", "invalid", "titles[0]: language 'deu' is not a two-letter lowercase code"),
      ("titles", "invalid", "titles[0]: translation type missing or unrecognized"),
      ("titles", "invalid", "titles[0]: empty text"),
      ("keywords", "invalid", "keywords[0]: empty text"),
      ("relations", "invalid", "relations[0]: relation with identical endpoints"),
      ("relations", "invalid", "relations[0]: empty role")],
     "DISCARD project P-2 missing-mandatory-field:status"),
    (Person(id="9", sex="X", expert_skills=(ExpertSkill(""),), contacts=(Contact(),)),
     [("family_names", "missing", "no family names"),
      ("sex", "invalid", "sex code 'X' is neither M nor F"),
      ("expert_skills", "invalid", "expert_skills[0]: empty skill"),
      ("contacts", "invalid", "contacts[0]: no channel present")],
     "DISCARD person 9 missing-mandatory-field:family_names"),
    (OrgUnit(id="OU", names=(TranslatedText("EN", H, "Name"),),
             ou_relations=(OuOuRelation("", "parent"),),
             expert_skills=(ExpertSkill("", "r"),),
             descriptions=(TranslatedText("en", None, "Text"),)),
     [("names", "invalid", "names[0]: language 'EN' is not a two-letter lowercase code"),
      ("descriptions", "invalid", "descriptions[0]: translation type missing or unrecognized"),
      ("ou_relations", "invalid", "ou_relations[0]: empty target"),
      ("expert_skills", "invalid", "expert_skills[0]: empty skill")],
     "DISCARD orgunit OU missing-mandatory-field:names"),
    # language-tagged bags are checked before the other item fields, so the
    # description (declared last) names the discard, not the ou-relation
    (OrgUnit(id="OU2", names=(TranslatedText("en", H, "Name"),),
             ou_relations=(OuOuRelation("TU", ""),),
             descriptions=(TranslatedText("e", H, "D"),)),
     [("descriptions", "invalid", "descriptions[0]: language 'e' is not a two-letter "
       "lowercase code"),
      ("ou_relations", "invalid", "ou_relations[0]: empty role")],
     "DISCARD orgunit OU2 missing-mandatory-field:descriptions"),
]


@pytest.mark.parametrize("record,violations,discard", BREACH_CASES,
                         ids=["project", "person", "orgunit", "orgunit-order"])
def test_breaches_in_pinned_order(record, violations, discard):
    assert [(v.field, v.code, v.message) for v in validate_record(record)] == violations
    rs = RecordSet()
    rs.add(record)
    assert apply_discard_cascade(rs).to_lines() == [discard]


_DOC_HEAD = ('<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#" '
             'xmlns:cerif="http://derpi.tuwien.ac.at/~andrei/cerif-rdf#">\n')

WARNING_CASES = [
    ("""\
  <cerif:project ID="P-1">
    <cerif:project.status>Execution</cerif:project.status>
    <cerif:proj_status>Completed</cerif:proj_status>
    <cerif:proj_start_date>02.2000</cerif:proj_start_date>
    <cerif:proj_budget>100</cerif:proj_budget>
    <cerif:proj_url>http://a</cerif:proj_url>
    <cerif:proj_uri>http://b</cerif:proj_uri>
    <cerif:project-keywords><rdf:Bag/></cerif:project-keywords>
    <cerif:project.project-keywords><rdf:Bag/></cerif:project.project-keywords>
  </cerif:project>
""",
     ["project P-1: duplicate proj_status element, first one kept",
      "project P-1: unknown element cerif:proj_budget ignored",
      "project P-1: duplicate proj_uri element, first one kept",
      "project P-1: duplicate project-keywords element, first one kept"],
     Project(id="P-1", status=ProjectStatus.EXECUTION, start=PartialDate(2000, 2),
             uri="http://a")),
    ("""\
  <cerif:person ID="273">
    <cerif:PERSON.PER_FAMILY_NAMES>Niedermayer</cerif:PERSON.PER_FAMILY_NAMES>
    <cerif:person.per_family_names>Other</cerif:person.per_family_names>
    <cerif:person.per_sex>F</cerif:person.per_sex>
    <cerif:person.per_height>1.8</cerif:person.per_height>
    <cerif:person.per_sex>M</cerif:person.per_sex>
    <cerif:person.contacts><rdf:Bag/></cerif:person.contacts>
    <cerif:person.contacts><rdf:Bag/></cerif:person.contacts>
  </cerif:person>
""",
     ["person 273: duplicate person.per_family_names element, first one kept",
      "person 273: unknown element cerif:person.per_height ignored",
      "person 273: duplicate person.per_sex element, first one kept",
      "person 273: duplicate person.contacts element, first one kept"],
     Person(id="273", family_names="Niedermayer", sex="F")),
    ("""\
  <cerif:orgunit.orgunit ID="OU">
    <cerif:orgunit.org_acronym>A</cerif:orgunit.org_acronym>
    <cerif:ORGUNIT.ORG_ACRONYM>B</cerif:ORGUNIT.ORG_ACRONYM>
    <cerif:orgunit.org_budget>1</cerif:orgunit.org_budget>
    <cerif:Orgunit.Org_Url>http://ou</cerif:Orgunit.Org_Url>
    <cerif:orgunit.orgunit_names><rdf:Bag/></cerif:orgunit.orgunit_names>
    <cerif:orgunit.orgunit_names><rdf:Bag/></cerif:orgunit.orgunit_names>
  </cerif:orgunit.orgunit>
""",
     ["orgunit OU: duplicate orgunit.org_acronym element, first one kept",
      "orgunit OU: unknown element cerif:orgunit.org_budget ignored",
      "orgunit OU: duplicate orgunit.orgunit_names element, first one kept"],
     OrgUnit(id="OU", acronym="A", url="http://ou")),
]


@pytest.mark.parametrize("body,warnings,record", WARNING_CASES,
                         ids=["project", "person", "orgunit"])
def test_repeat_alias_and_unknown_warnings(body, warnings, record):
    rs, got = parse_document(_DOC_HEAD + body + "</rdf:RDF>\n")
    assert got == warnings
    assert list(rs.records.values()) == [record]
